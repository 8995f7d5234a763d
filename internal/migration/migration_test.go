package migration

import (
	"sync"
	"testing"

	"pga/internal/core"
	"pga/internal/genome"
	"pga/internal/rng"
)

func pop(fs ...float64) *core.Population {
	p := core.NewPopulation(len(fs))
	for _, f := range fs {
		ind := core.NewIndividual(genome.NewBitString(4))
		ind.Fitness, ind.Evaluated = f, true
		p.Members = append(p.Members, ind)
	}
	return p
}

func fitnesses(p *core.Population) []float64 {
	out := make([]float64, p.Len())
	for i, ind := range p.Members {
		out[i] = ind.Fitness
	}
	return out
}

func TestSelectBest(t *testing.T) {
	p := pop(3, 9, 1, 7, 5)
	m := (SelectBest{}).Pick(p, core.Maximize, 2, rng.New(1))
	if len(m) != 2 || m[0].Fitness != 9 || m[1].Fitness != 7 {
		t.Fatalf("SelectBest picked %v %v", m[0].Fitness, m[1].Fitness)
	}
	// Minimize direction.
	m = (SelectBest{}).Pick(p, core.Minimize, 2, rng.New(1))
	if m[0].Fitness != 1 || m[1].Fitness != 3 {
		t.Fatalf("SelectBest(min) picked %v %v", m[0].Fitness, m[1].Fitness)
	}
}

func TestSelectBestClones(t *testing.T) {
	p := pop(1, 2)
	m := (SelectBest{}).Pick(p, core.Maximize, 1, rng.New(1))
	m[0].Genome.(*genome.BitString).Set(0, true)
	if p.Members[1].Genome.(*genome.BitString).Get(0) {
		t.Fatal("emigrant aliases population genome")
	}
}

func TestSelectBestCapsCount(t *testing.T) {
	p := pop(1, 2)
	m := (SelectBest{}).Pick(p, core.Maximize, 10, rng.New(1))
	if len(m) != 2 {
		t.Fatalf("picked %d from population of 2", len(m))
	}
}

func TestSelectRandomDistinct(t *testing.T) {
	p := pop(1, 2, 3, 4, 5)
	m := (SelectRandom{}).Pick(p, core.Maximize, 5, rng.New(2))
	seen := map[float64]bool{}
	for _, ind := range m {
		if seen[ind.Fitness] {
			t.Fatal("SelectRandom picked same individual twice")
		}
		seen[ind.Fitness] = true
	}
}

// TestSelectRandomMatchesSample: Pick emigrates the members r.Sample names,
// in its order, and leaves the stream where Sample does — from several
// goroutines at once over populations of different sizes, so the pooled
// tables grow, shrink and are shared (run under -race).
func TestSelectRandomMatchesSample(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for trial := 0; trial < 200; trial++ {
				size := 1 + (trial*7+w*13)%40
				fs := make([]float64, size)
				for i := range fs {
					fs[i] = float64(i)
				}
				p := pop(fs...)
				count := trial % 6
				seed := uint64(w*1000 + trial)
				got, want := rng.New(seed), rng.New(seed)
				m := (SelectRandom{}).Pick(p, core.Maximize, count, got)
				ref := want.Sample(size, min(count, size))
				if len(m) != len(ref) || got.State() != want.State() {
					t.Errorf("size %d count %d: picked %d, Sample %d, or the stream moved differently", size, count, len(m), len(ref))
					return
				}
				for i, ind := range m {
					if ind.Fitness != float64(ref[i]) {
						t.Errorf("size %d count %d: emigrant %d is member %v, Sample names %d", size, count, i, ind.Fitness, ref[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestSelectRandomPickAllocs: a pick allocates its output slice and the
// clones, and no identity table.
func TestSelectRandomPickAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch on purpose under -race")
	}
	fs := make([]float64, 200)
	p := pop(fs...)
	r := rng.New(1)
	const count = 4
	var sink []*core.Individual
	clones := testing.AllocsPerRun(100, func() {
		for _, ind := range p.Members[:count] {
			sink = append(sink[:0], ind.Clone())
		}
	})
	picks := testing.AllocsPerRun(100, func() { sink = (SelectRandom{}).Pick(p, core.Maximize, count, r) })
	if picks != 1+clones {
		t.Fatalf("Pick of %d from %d allocates %v times, want 1 + %v for the clones", count, len(fs), picks, clones)
	}
}

func TestSelectTournamentPrefersBetter(t *testing.T) {
	p := pop(1, 2, 3, 4, 100)
	r := rng.New(3)
	hits := 0
	for i := 0; i < 1000; i++ {
		m := (SelectTournament{K: 3}).Pick(p, core.Maximize, 1, r)
		if m[0].Fitness == 100 {
			hits++
		}
	}
	if hits < 400 {
		t.Fatalf("tournament migrant selection too weak: %d/1000 best", hits)
	}
	if (SelectTournament{}).k() != 3 {
		t.Fatal("default K wrong")
	}
}

func TestReplaceWorst(t *testing.T) {
	p := pop(5, 1, 9)
	in := []*core.Individual{{Fitness: 0.5, Evaluated: true, Genome: genome.NewBitString(4)}}
	n := (ReplaceWorst{}).Integrate(p, core.Maximize, in, rng.New(4))
	if n != 1 {
		t.Fatalf("accepted %d", n)
	}
	// Worst (fitness 1) replaced even by a worse migrant (0.5): unconditional.
	fs := fitnesses(p)
	if fs[1] != 0.5 {
		t.Fatalf("worst not replaced: %v", fs)
	}
}

func TestReplaceWorstIfBetter(t *testing.T) {
	p := pop(5, 1, 9)
	worse := []*core.Individual{{Fitness: 0.5, Evaluated: true, Genome: genome.NewBitString(4)}}
	if n := (ReplaceWorstIfBetter{}).Integrate(p, core.Maximize, worse, rng.New(5)); n != 0 {
		t.Fatalf("accepted a worse migrant: %d", n)
	}
	better := []*core.Individual{{Fitness: 2, Evaluated: true, Genome: genome.NewBitString(4)}}
	if n := (ReplaceWorstIfBetter{}).Integrate(p, core.Maximize, better, rng.New(5)); n != 1 {
		t.Fatal("rejected a better migrant")
	}
	if fitnesses(p)[1] != 2 {
		t.Fatalf("population after integrate: %v", fitnesses(p))
	}
}

func TestReplaceWorstIfBetterMinimize(t *testing.T) {
	p := pop(0.1, 0.9, 0.5)
	in := []*core.Individual{{Fitness: 0.2, Evaluated: true, Genome: genome.NewBitString(4)}}
	if n := (ReplaceWorstIfBetter{}).Integrate(p, core.Minimize, in, rng.New(6)); n != 1 {
		t.Fatal("rejected better (lower) migrant under minimize")
	}
	if fitnesses(p)[1] != 0.2 {
		t.Fatalf("population: %v", fitnesses(p))
	}
}

func TestReplaceRandomNeverEvictsBest(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 500; trial++ {
		p := pop(1, 2, 100)
		in := []*core.Individual{{Fitness: 3, Evaluated: true, Genome: genome.NewBitString(4)}}
		(ReplaceRandom{}).Integrate(p, core.Maximize, in, r)
		if p.BestFitness(core.Maximize) != 100 {
			t.Fatal("ReplaceRandom evicted the best individual")
		}
	}
}

func TestReplaceRandomTinyPopulation(t *testing.T) {
	p := pop(1)
	in := []*core.Individual{{Fitness: 3, Evaluated: true, Genome: genome.NewBitString(4)}}
	if n := (ReplaceRandom{}).Integrate(p, core.Maximize, in, rng.New(8)); n != 0 {
		t.Fatal("integrated into 1-member population")
	}
}

func TestMultipleMigrantsReplaceMultipleWorst(t *testing.T) {
	p := pop(10, 1, 2, 20)
	in := []*core.Individual{
		{Fitness: 15, Evaluated: true, Genome: genome.NewBitString(4)},
		{Fitness: 16, Evaluated: true, Genome: genome.NewBitString(4)},
	}
	(ReplaceWorst{}).Integrate(p, core.Maximize, in, rng.New(9))
	fs := fitnesses(p)
	// 1 and 2 replaced by 15 and 16.
	sum := 0.0
	for _, f := range fs {
		sum += f
	}
	if sum != 10+15+16+20 {
		t.Fatalf("population after 2 migrants: %v", fs)
	}
}

func TestPolicyDue(t *testing.T) {
	p := Policy{Interval: 5}
	if p.Due(0) || p.Due(4) || p.Due(6) {
		t.Fatal("Due fired off-schedule")
	}
	if !p.Due(5) || !p.Due(10) {
		t.Fatal("Due missed schedule")
	}
	if (Policy{Interval: 0}).Due(5) {
		t.Fatal("interval 0 must never be due")
	}
}

func TestPolicyWithDefaults(t *testing.T) {
	p := Policy{Interval: 4}.WithDefaults()
	if p.Select == nil || p.Replace == nil || p.Count != 1 || p.Buffer != 4 {
		t.Fatalf("defaults not applied: %+v", p)
	}
	// Existing values preserved.
	q := Policy{Interval: 4, Count: 3, Buffer: 9, Select: SelectRandom{}, Replace: ReplaceRandom{}}.WithDefaults()
	if q.Count != 3 || q.Buffer != 9 || q.Select.Name() != "random" || q.Replace.Name() != "random" {
		t.Fatal("defaults clobbered explicit values")
	}
}

func TestPolicyString(t *testing.T) {
	if (Policy{}).String() != "no-migration" {
		t.Fatal("no-migration string wrong")
	}
	s := Policy{Interval: 5, Count: 2, Sync: true}.String()
	if s == "" || s == "no-migration" {
		t.Fatalf("policy string = %q", s)
	}
}

func TestSelectorReplacerNames(t *testing.T) {
	for _, s := range []Selector{SelectBest{}, SelectRandom{}, SelectTournament{}} {
		if s.Name() == "" {
			t.Fatalf("%T empty name", s)
		}
	}
	for _, r := range []Replacer{ReplaceWorst{}, ReplaceWorstIfBetter{}, ReplaceRandom{}} {
		if r.Name() == "" {
			t.Fatalf("%T empty name", r)
		}
	}
}
