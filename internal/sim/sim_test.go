package sim

import (
	"math"
	"testing"

	"pga/internal/core"
	"pga/internal/engine"
	"pga/internal/genome"
)

func TestDominates(t *testing.T) {
	if !Dominates([]float64{1, 2}, []float64{2, 3}) {
		t.Fatal("clear domination missed")
	}
	if !Dominates([]float64{1, 3}, []float64{2, 3}) {
		t.Fatal("weak domination missed")
	}
	if Dominates([]float64{1, 3}, []float64{1, 3}) {
		t.Fatal("equal vectors dominate")
	}
	if Dominates([]float64{1, 4}, []float64{2, 3}) {
		t.Fatal("incomparable vectors dominate")
	}
}

func TestDominatesPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Dominates([]float64{1}, []float64{1, 2})
}

func g1(v float64) *genome.RealVector {
	g := genome.NewRealVector(1, 0, 1)
	g.Genes[0] = v
	return g
}

func TestArchiveBasics(t *testing.T) {
	a := NewArchive(10)
	if !a.Add(g1(0.1), []float64{1, 5}) {
		t.Fatal("first insert rejected")
	}
	if !a.Add(g1(0.2), []float64{5, 1}) {
		t.Fatal("incomparable insert rejected")
	}
	if a.Add(g1(0.3), []float64{6, 2}) {
		t.Fatal("dominated insert accepted")
	}
	if a.Len() != 2 {
		t.Fatalf("archive size %d", a.Len())
	}
	// A dominating point evicts both.
	if !a.Add(g1(0.4), []float64{0.5, 0.5}) {
		t.Fatal("dominating insert rejected")
	}
	if a.Len() != 1 {
		t.Fatalf("archive size after eviction %d", a.Len())
	}
}

func TestArchiveRejectsDuplicates(t *testing.T) {
	a := NewArchive(10)
	a.Add(g1(0.1), []float64{1, 2})
	if a.Add(g1(0.9), []float64{1, 2}) {
		t.Fatal("duplicate objectives accepted")
	}
}

func TestArchiveCapCrowding(t *testing.T) {
	a := NewArchive(3)
	// Non-dominated staircase.
	a.Add(g1(0.1), []float64{1, 10})
	a.Add(g1(0.2), []float64{5, 5})
	a.Add(g1(0.3), []float64{10, 1})
	if !a.Add(g1(0.4), []float64{5.1, 4.8}) {
		t.Fatal("full archive rejected a non-dominated point")
	}
	if a.Len() != 3 {
		t.Fatalf("cap violated: %d", a.Len())
	}
}

func TestArchiveClonesGenomes(t *testing.T) {
	a := NewArchive(5)
	g := g1(0.5)
	a.Add(g, []float64{1, 1})
	g.Genes[0] = 0.9
	if a.Items()[0].Genome.(*genome.RealVector).Genes[0] != 0.5 {
		t.Fatal("archive aliases inserted genome")
	}
}

func TestHypervolume2D(t *testing.T) {
	// Single point (1,1) with ref (3,3): rectangle 2x2 = 4.
	hv := Hypervolume2D([][]float64{{1, 1}}, [2]float64{3, 3})
	if hv != 4 {
		t.Fatalf("hv %v, want 4", hv)
	}
	// Staircase: (1,2) and (2,1) with ref (3,3): 2+1+... compute: sorted
	// by f1: (1,2): (3-1)*(3-2)=2; (2,1): (3-2)*(2-1)=1; total 3.
	hv = Hypervolume2D([][]float64{{2, 1}, {1, 2}}, [2]float64{3, 3})
	if hv != 3 {
		t.Fatalf("staircase hv %v, want 3", hv)
	}
	// Dominated point adds nothing.
	hv2 := Hypervolume2D([][]float64{{2, 1}, {1, 2}, {2.5, 2.5}}, [2]float64{3, 3})
	if hv2 != 3 {
		t.Fatalf("dominated point changed hv: %v", hv2)
	}
	// Points beyond the reference contribute nothing.
	if Hypervolume2D([][]float64{{5, 5}}, [2]float64{3, 3}) != 0 {
		t.Fatal("out-of-ref point contributed")
	}
}

func TestHypervolumeMoreFrontIsBigger(t *testing.T) {
	few := Hypervolume2D([][]float64{{1, 9}, {9, 1}}, [2]float64{10, 10})
	many := Hypervolume2D([][]float64{{1, 9}, {5, 5}, {9, 1}}, [2]float64{10, 10})
	if many <= few {
		t.Fatal("denser front did not increase hypervolume")
	}
}

func TestZDT1Objectives(t *testing.T) {
	z := ZDT1{Dim: 30}
	g := genome.NewRealVector(30, 0, 1) // all zeros: on the Pareto front
	objs := make([]float64, 2)
	z.Objectives(g, objs)
	if objs[0] != 0 || math.Abs(objs[1]-1) > 1e-12 {
		t.Fatalf("zdt1(0)=%v, want [0,1]", objs)
	}
	// x0=1, rest 0: f1=1, f2=0 — the other end of the front.
	g.Genes[0] = 1
	z.Objectives(g, objs)
	if objs[0] != 1 || math.Abs(objs[1]) > 1e-12 {
		t.Fatalf("zdt1 end=%v, want [1,0]", objs)
	}
	if z.NObjectives() != 2 || z.Name() == "" {
		t.Fatal("metadata wrong")
	}
}

func TestSchafferObjectives(t *testing.T) {
	s := Schaffer{}
	g := genome.NewRealVector(1, 0, 1)
	g.Genes[0] = 0.4 // x = 0
	objs := make([]float64, 2)
	s.Objectives(g, objs)
	if objs[0] != 0 || objs[1] != 4 {
		t.Fatalf("schaffer(0)=%v", objs)
	}
	g.Genes[0] = 0.6 // x = 2
	s.Objectives(g, objs)
	if objs[0] != 4 || objs[1] != 0 {
		t.Fatalf("schaffer(2)=%v", objs)
	}
}

// allScenarios lists all seven scenarios in order.
var allScenarios = []Scenario{S1, S2, S3, S4, S5, S6, S7}

func TestBuildScenarioShapes(t *testing.T) {
	for _, s := range allScenarios {
		specs := buildScenario(s, 2)
		switch s {
		case S1:
			if len(specs) != 1 {
				t.Fatalf("%s: %d islands", s, len(specs))
			}
		case S6:
			if len(specs) != 3 {
				t.Fatalf("%s: %d islands, want 3", s, len(specs))
			}
			if len(specs[0].neighbors) != 2 {
				t.Fatalf("%s: hub degree %d", s, len(specs[0].neighbors))
			}
		default:
			if len(specs) != 2 {
				t.Fatalf("%s: %d islands, want 2", s, len(specs))
			}
		}
		if s.String() == "" {
			t.Fatal("empty scenario name")
		}
	}
}

func TestScenarioSpecialistsAreOneHot(t *testing.T) {
	specs := buildScenario(S5, 3)
	for i, sp := range specs {
		ones := 0
		for _, w := range sp.weights {
			if w == 1 {
				ones++
			} else if w != 0 {
				t.Fatalf("specialist %d has weight %v", i, w)
			}
		}
		if ones != 1 {
			t.Fatalf("specialist %d not one-hot", i)
		}
	}
}

func TestRunAllScenarios(t *testing.T) {
	for _, s := range allScenarios {
		res := Run(Config{
			Problem:  ZDT1{Dim: 10},
			Scenario: s,
			DemeSize: 20,
			Seed:     1,
		}, core.MaxGenerations(20), engine.Control{})
		if res.Archive.Len() == 0 {
			t.Fatalf("%s: empty archive", s)
		}
		if res.Hypervolume <= 0 {
			t.Fatalf("%s: hypervolume %v", s, res.Hypervolume)
		}
		if res.Evaluations == 0 {
			t.Fatalf("%s: no evaluations", s)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() float64 {
		return Run(Config{Problem: ZDT1{Dim: 8}, Scenario: S5, DemeSize: 16, Seed: 7}, core.MaxGenerations(15), engine.Control{}).Hypervolume
	}
	if run() != run() {
		t.Fatal("SIM run not deterministic")
	}
}

func TestCommunicatingSpecialistsBeatIsolated(t *testing.T) {
	// The SIM paper's qualitative finding: specialists that exchange
	// individuals cover the front better than isolated specialists,
	// which cling to the objective extremes. Averaged over seeds, scored
	// with a tight hypervolume reference so only near-front points count.
	avg := func(s Scenario) float64 {
		sum := 0.0
		for seed := uint64(0); seed < 5; seed++ {
			sum += Run(Config{
				Problem: ZDT1{Dim: 10}, Scenario: s, DemeSize: 24,
				HVRef: [2]float64{1.1, 1.1}, Seed: seed,
			}, core.MaxGenerations(40), engine.Control{}).Hypervolume
		}
		return sum / 5
	}
	isolated := avg(S4)
	ring := avg(S5)
	hub := avg(S6)
	if ring <= isolated {
		t.Fatalf("communicating specialists (%v) not better than isolated (%v)", ring, isolated)
	}
	if hub <= isolated {
		t.Fatalf("hub scenario (%v) not better than isolated (%v)", hub, isolated)
	}
}

func TestRunValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic without problem")
		}
	}()
	Run(Config{Scenario: S1}, core.MaxGenerations(1), engine.Control{})
}
