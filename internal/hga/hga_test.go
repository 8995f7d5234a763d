package hga

import (
	"testing"

	"pga/internal/core"
	"pga/internal/engine"
	"pga/internal/genome"
	"pga/internal/operators"
	"pga/internal/problems"
	"pga/internal/rng"
)

func quantized() *QuantizedFidelity {
	return NewQuantized(problems.Rastrigin(6))
}

func cfg(seed uint64) Config {
	return Config{
		Problem:   quantized(),
		DemeSize:  24,
		Crossover: operators.SBX{},
		Mutator:   operators.Polynomial{},
		Seed:      seed,
	}
}

func TestQuantizedLevels(t *testing.T) {
	q := quantized()
	if q.Levels() != 3 {
		t.Fatalf("levels %d", q.Levels())
	}
	if q.CostAt(0) != 1 || q.CostAt(2) >= q.CostAt(1) {
		t.Fatal("costs not decreasing")
	}
	if q.Direction() != core.Minimize || q.Name() == "" {
		t.Fatal("metadata wrong")
	}
}

func TestQuantizedLevel0IsExact(t *testing.T) {
	q := quantized()
	r := rng.New(1)
	g := q.NewGenome(r)
	if q.EvaluateAt(0, g, nil) != q.Inner.Evaluate(g) {
		t.Fatal("level 0 differs from precise model")
	}
	if q.Evaluate(g) != q.EvaluateAt(0, g, nil) {
		t.Fatal("Evaluate is not level 0")
	}
}

func TestQuantizedCoarseLevelsCorrelated(t *testing.T) {
	q := quantized()
	r := rng.New(2)
	// Coarse model values should be close to precise ones (same landscape,
	// snapped inputs).
	for i := 0; i < 50; i++ {
		g := q.NewGenome(r)
		precise := q.EvaluateAt(0, g, nil)
		coarse := q.EvaluateAt(2, g, nil)
		if coarse < 0 {
			t.Fatal("coarse rastrigin negative")
		}
		if precise > 150 && coarse < 10 {
			t.Fatalf("coarse model uncorrelated: precise=%v coarse=%v", precise, coarse)
		}
	}
}

func TestQuantizedDiffersAtCoarseLevel(t *testing.T) {
	q := quantized()
	r := rng.New(3)
	differs := false
	for i := 0; i < 20; i++ {
		g := q.NewGenome(r)
		if q.EvaluateAt(0, g, nil) != q.EvaluateAt(2, g, nil) {
			differs = true
		}
	}
	if !differs {
		t.Fatal("coarse level identical to precise on all samples")
	}
}

func TestQuantizedSolvedAtOptimum(t *testing.T) {
	q := quantized()
	v := genome.NewRealVector(6, q.Inner.Lo, q.Inner.Hi) // all zeros = optimum
	if !q.Solved(q.Evaluate(v)) {
		t.Fatal("optimum not recognised")
	}
}

func TestHGAStructure(t *testing.T) {
	m := New(cfg(1))
	if len(m.demes) != 7 { // 1 + 2 + 4
		t.Fatalf("demes %d, want 7", len(m.demes))
	}
	// Layer and parent invariants.
	if m.parent[0] != -1 {
		t.Fatal("top deme has a parent")
	}
	for i := 1; i < len(m.demes); i++ {
		p := m.parent[i]
		if p < 0 || p >= len(m.demes) {
			t.Fatalf("deme %d parent %d out of range", i, p)
		}
		if m.layerOf[p] != m.layerOf[i]-1 {
			t.Fatalf("deme %d (layer %d) parent %d on layer %d", i, m.layerOf[i], p, m.layerOf[p])
		}
	}
}

// runCost runs a fresh hierarchy of c until its cost reaches budget.
func runCost(c Config, budget float64) *Result {
	m := New(c)
	return m.Run(CostCap{Model: m, Budget: budget}, engine.Control{})
}

func TestHGAReducesCostPerEvaluation(t *testing.T) {
	res := runCost(cfg(2), 5000)
	if res.Cost > 5000*1.2 {
		t.Fatalf("cost budget overrun: %v", res.Cost)
	}
	// Mixed levels: raw evaluations must exceed cost units (cheap levels
	// cost < 1 each).
	if float64(res.Evaluations) <= res.Cost {
		t.Fatalf("evaluations %d not greater than cost %v (no cheap levels used?)", res.Evaluations, res.Cost)
	}
}

func TestHGAPreciseOnlyBaselineCostsMore(t *testing.T) {
	// Same structure, all layers precise: every evaluation costs 1.
	c := cfg(3)
	c.LevelOf = []int{0, 0, 0}
	res := runCost(c, 3000)
	if float64(res.Evaluations) != res.Cost {
		t.Fatalf("precise-only: evals %d != cost %v", res.Evaluations, res.Cost)
	}
}

func TestHGAImprovesWithBudget(t *testing.T) {
	small := runCost(cfg(4), 1000)
	large := runCost(cfg(4), 20000)
	if large.BestFitness > small.BestFitness {
		t.Fatalf("more budget worsened quality: %v vs %v", large.BestFitness, small.BestFitness)
	}
}

func TestHGADeterministic(t *testing.T) {
	a := runCost(cfg(5), 2000)
	b := runCost(cfg(5), 2000)
	if a.BestFitness != b.BestFitness || a.Evaluations != b.Evaluations {
		t.Fatal("HGA not deterministic per seed")
	}
}

func TestHGAMixedBeatsPreciseAtEqualCost(t *testing.T) {
	// E8's shape: at the same cost budget, the mixed hierarchy should do
	// at least as well (usually better) than precise-only. Averaged over
	// seeds to damp noise.
	const budget = 4000
	const runs = 3
	var mixed, precise float64
	for s := uint64(0); s < runs; s++ {
		mixed += runCost(cfg(100+s), budget).BestFitness
		c := cfg(100 + s)
		c.LevelOf = []int{0, 0, 0}
		precise += runCost(c, budget).BestFitness
	}
	mixed /= runs
	precise /= runs
	// Minimisation: mixed must not be dramatically worse.
	if mixed > precise*1.5+1 {
		t.Fatalf("mixed hierarchy much worse at equal cost: mixed=%v precise=%v", mixed, precise)
	}
}

// TestHGACostAtSolve: a run that solves well before its cost budget runs
// on to the budget, and CostAtSolve is the cost accumulated by the end of
// the solving generation, not the cost at the end of the run.
func TestHGACostAtSolve(t *testing.T) {
	c := cfg(5)
	c.Problem = NewQuantized(problems.Sphere(3))
	m := New(c)
	costAfter := map[int]float64{}
	watch := engine.Funcs{Generation: func(s core.Status) { costAfter[s.Generation] = m.cost }}
	res := m.Run(CostCap{Model: m, Budget: 9000}, engine.Control{Observers: []engine.Observer{watch}})
	if !res.Solved || res.StopReason != "cost budget exhausted" || res.SolvedAtGen >= res.Generations/2 {
		t.Fatalf("want a solve well before the budget: %+v", res.RunStats)
	}
	if res.CostAtSolve >= res.Cost || res.CostAtSolve != costAfter[res.SolvedAtGen] {
		t.Fatalf("cost at solve %v, want %v (the cost after generation %d) and below the run's %v",
			res.CostAtSolve, costAfter[res.SolvedAtGen], res.SolvedAtGen, res.Cost)
	}
}

func TestHGAValidation(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic without problem")
			}
		}()
		New(Config{})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic on mismatched LevelOf")
			}
		}()
		c := cfg(1)
		c.LevelOf = []int{0}
		New(c)
	}()
}
