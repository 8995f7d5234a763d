package ga

// Eight pairs per instruction, one population, the serial loop's bytes.
//
// The survey's first model is the global PGA: one panmictic population
// whose reproduction is spread over processors without changing the
// algorithm. ParallelGenerational does that with a stream per worker, so
// its bytes depend on its worker count; Generational does it here, in
// SIMD lanes on the goroutine that called Step, with the serial loop's
// bytes on every host.
//
// A generation's births are pairs: two selections and a crossover-chance
// draw, then the pair's crossover (when crossed) and two mutations. When
// both operators declare their draws on the genome's shape
// (operators.FixedDraws: one ChanceMask bit per gene at a fixed
// probability), the stream state after a pair's breed draws is known
// without making them: xoshiro's transition is linear, so a fixed count
// of draws is one rng.Leap. The plan pass makes every selection and
// chance draw in the serial order, through the serial loop's pickPair, on
// a copy of the engine stream, leaps over each pair's breed draws, and
// records where each pair's breed draws start and end. Each pair's breed
// draws are then a stream of their own, and rng.Lanes draws eight such
// streams per instruction: the crossed pairs eight at a time (crossover
// words, then the first child's mutation words, then the second's), then
// the copied pairs (mutation words only), each word applied to its pair's
// children by the operators' own SwapWord and FlipWord. The engine stream
// is set where the plan ended.
//
// After its last word, every lane must stand at its pair's recorded end.
// A wrong declaration fails that check, and the serial loop then breeds
// the generation again from the untouched engine stream: a wrong
// declaration costs time, never bytes.

import (
	"pga/internal/genome"
	"pga/internal/operators"
	"pga/internal/rng"
)

// minLaneDraws is the fewest breed draws a generation must declare for
// Generational to breed it in lanes. The first such generation builds
// the engine's two leaps (≈ 0.5 ms each), which the short-lived engines
// of the island, p2p and sweep models never earn back; above it they are
// repaid within a few generations (EXPERIMENTS.md, "Eight pairs per
// instruction"). A variable so that tests can move it.
var minLaneDraws = 1 << 14

// newLeap builds the plan pass's leaps; a test swaps in a wrong one.
var newLeap = rng.NewLeap

// pairPlan is one pair of births as the plan pass found it.
type pairPlan struct {
	// a and b index the parents; crossed is the crossover chance's outcome.
	a, b    int
	crossed bool
	// from and to are the engine-stream states where the pair's breed
	// draws start and end.
	from, to [5]uint64
}

// laneBirths is the pooled state of the lane path, built by the first
// generation that takes it.
type laneBirths struct {
	plan []pairPlan
	// r is the plan pass's copy of the engine stream.
	r rng.Source
	// leaps skip a copied (0) and a crossed (1) pair's breed draws.
	leaps [2]*rng.Leap
	lanes rng.Lanes
	// ok reports that the latest generation was bred in lanes.
	ok bool
}

// breedLanes breeds the generation's births in lanes when it may, and
// reports whether it did. When it reports false the engine stream is
// untouched and the serial loop breeds the generation, overwriting
// whatever the lanes wrote. e.scratch holds the generation's selection
// plan.
func (e *Generational) breedLanes(births int) bool {
	cfg := &e.cfg
	pairs := (births + 1) / 2
	g, isBits := e.pop.Members[0].Genome.(*genome.BitString)
	if !isBits {
		return false
	}
	dc, okc := operators.FixedDraws(cfg.Crossover, g)
	dm, okm := operators.FixedDraws(cfg.Mutator, g)
	if !okc || !okm || pairs*(dc.Draws()+2*dm.Draws()) < minLaneDraws {
		return false
	}
	if e.lanes == nil {
		e.lanes = &laneBirths{plan: make([]pairPlan, pairs)}
	}
	t := e.lanes
	t.ok = false
	r := &t.r
	r.SetState(cfg.RNG.State())
	copied := 2 * dm.Draws()
	for p := range t.plan {
		pp := &t.plan[p]
		pp.a, pp.b, pp.crossed = e.pickPair(r)
		pp.from = r.State()
		t.leap(pp.crossed, dc.Draws()+copied, copied).Apply(r)
		pp.to = r.State()
	}
	// The crossed pairs, then the copied ones, so that every run of
	// MaxLanes pairs shares one sequence of words.
	var run [rng.MaxLanes]int
	for _, crossed := range [2]bool{true, false} {
		k := 0
		for p := range t.plan {
			if t.plan[p].crossed != crossed {
				continue
			}
			run[k], k = p, k+1
			if k == len(run) {
				if !e.breedRun(run[:k], births, g.N, dc, dm) {
					return false
				}
				k = 0
			}
		}
		if k > 0 && !e.breedRun(run[:k], births, g.N, dc, dm) {
			return false
		}
	}
	cfg.RNG.SetState(r.State())
	t.ok = true
	return true
}

// leap returns the leap over one pair's breed draws: crossed of them when
// the pair is crossed, copied when not.
func (t *laneBirths) leap(isCrossed bool, crossed, copied int) *rng.Leap {
	k, d := 0, copied
	if isCrossed {
		k, d = 1, crossed
	}
	if t.leaps[k] == nil || t.leaps[k].Draws() != d {
		t.leaps[k] = newLeap(d)
	}
	return t.leaps[k]
}

// breedRun breeds the pairs plan[run[0]], plan[run[1]], … — at most
// MaxLanes, all crossed or all copied — one lane each, and reports
// whether every lane ended where the plan says. dc and dm are the
// crossover's and the mutator's declarations on n genes.
func (e *Generational) breedRun(run []int, births, n int, dc, dm operators.MaskDraws) bool {
	t := e.lanes
	l := &t.lanes
	l.Reset()
	var x, y [rng.MaxLanes]*genome.BitString
	for k, p := range run {
		pp := &t.plan[p]
		pa := e.pop.Members[pp.a].Genome.(*genome.BitString)
		pb := e.pop.Members[pp.b].Genome.(*genome.BitString)
		c1, c2 := e.children(2*p, births)
		x[k], y[k] = c1.Genome.(*genome.BitString), c2.Genome.(*genome.BitString)
		if pa.N != n || pb.N != n || x[k].N != n || y[k].N != n {
			return false // a shape the declarations were not made for
		}
		x[k].CopyFrom(pa)
		y[k].CopyFrom(pb)
		c1.Evaluated, c2.Evaluated = false, false
		l.Add(pp.from)
	}
	if t.plan[run[0]].crossed {
		for w := 0; w < dc.Words(); w++ {
			m := l.ChanceMask(dc.P, dc.Width(w))
			for k := range run {
				operators.SwapWord(&x[k].Words[w], &y[k].Words[w], m[k])
			}
		}
	}
	for _, c := range [2]*[rng.MaxLanes]*genome.BitString{&x, &y} {
		for w := 0; w < dm.Words(); w++ {
			m := l.ChanceMask(dm.P, dm.Width(w))
			for k := range run {
				operators.FlipWord(&c[k].Words[w], m[k])
			}
		}
	}
	for k, p := range run {
		if l.State(k) != t.plan[p].to {
			return false
		}
	}
	return true
}
