package ga

import (
	"testing"

	"pga/internal/core"
	"pga/internal/engine"
	"pga/internal/genome"
	"pga/internal/operators"
	"pga/internal/problems"
	"pga/internal/rng"
)

func baseConfig(seed uint64) Config {
	return Config{
		Problem:   problems.OneMax{N: 64},
		PopSize:   60,
		Selector:  operators.Tournament{K: 2},
		Crossover: operators.Uniform{},
		Mutator:   operators.BitFlip{},
		RNG:       rng.New(seed),
	}
}

func TestGenerationalSolvesOneMax(t *testing.T) {
	e := NewGenerational(baseConfig(1))
	res := Run(e, RunOptions{Stop: core.AnyOf{
		core.MaxGenerations(300),
		core.TargetFitness{Target: 64, Dir: core.Maximize},
	}})
	if !res.Solved {
		t.Fatalf("generational GA failed onemax: best=%v after %d gens", res.BestFitness, res.Generations)
	}
	if res.StopReason != "target fitness reached" {
		t.Fatalf("stop reason %q", res.StopReason)
	}
}

func TestSteadyStateSolvesOneMax(t *testing.T) {
	e := NewSteadyState(baseConfig(2), true)
	res := Run(e, RunOptions{Stop: core.AnyOf{
		core.MaxGenerations(300),
		core.TargetFitness{Target: 64, Dir: core.Maximize},
	}})
	if !res.Solved {
		t.Fatalf("steady-state GA failed onemax: best=%v", res.BestFitness)
	}
}

func TestGenerationalSolvesRealValued(t *testing.T) {
	cfg := Config{
		Problem:   problems.Sphere(8),
		PopSize:   80,
		Selector:  operators.Tournament{K: 3},
		Crossover: operators.SBX{},
		Mutator:   operators.Polynomial{},
		RNG:       rng.New(3),
	}
	e := NewGenerational(cfg)
	res := Run(e, RunOptions{Stop: core.AnyOf{
		core.MaxGenerations(400),
		core.TargetFitness{Target: 1e-3, Dir: core.Minimize},
	}})
	if res.BestFitness > 0.01 {
		t.Fatalf("sphere not minimised: %v", res.BestFitness)
	}
}

func TestGenerationalMonotoneBestWithElitism(t *testing.T) {
	e := NewGenerational(baseConfig(4))
	prev := e.Population().BestFitness(core.Maximize)
	for i := 0; i < 50; i++ {
		e.Step()
		cur := e.Population().BestFitness(core.Maximize)
		if cur < prev {
			t.Fatalf("best fitness regressed with elitism: %v -> %v", prev, cur)
		}
		prev = cur
	}
}

func TestGenerationalNoElitismAllowed(t *testing.T) {
	cfg := baseConfig(5)
	cfg.Elitism = -1 // explicit "no elitism"
	e := NewGenerational(cfg)
	for i := 0; i < 5; i++ {
		e.Step()
	}
	if e.Population().Len() != cfg.PopSize {
		t.Fatal("population size drifted")
	}
	if e.Name() != "generational" {
		t.Fatalf("name = %q", e.Name())
	}
}

func TestGenerationalGenGap(t *testing.T) {
	cfg := baseConfig(6)
	cfg.GenGap = 0.3
	e := NewGenerational(cfg)
	before := make(map[*core.Individual]bool)
	for _, ind := range e.Population().Members {
		before[ind] = true
	}
	e.Step()
	if e.Population().Len() != cfg.PopSize {
		t.Fatalf("gen-gap step changed population size to %d", e.Population().Len())
	}
	// With gap 0.3, roughly 70% of the next population are survivors
	// (clones, so pointer identity is lost; use fitness conservation of the
	// elite instead).
	if e.Name() != "generational(gap=0.3)" {
		t.Fatalf("name = %q", e.Name())
	}
}

// TestTopIntoMatchesRanking: the elite the engines take without sorting
// is the stable sort's — random populations whose fitness is drawn from a
// handful of values, so ties are everywhere, in both directions; the best
// may sit first, last or be the whole population.
func TestTopIntoMatchesRanking(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 400; trial++ {
		n := 2 + r.Intn(40)
		levels := 1 + r.Intn(5)
		pop := core.NewPopulation(n)
		for i := 0; i < n; i++ {
			ind := core.NewIndividual(genome.NewBitString(1))
			ind.Fitness, ind.Evaluated = float64(r.Intn(levels)), true
			pop.Members = append(pop.Members, ind)
		}
		for _, dir := range []core.Direction{core.Maximize, core.Minimize} {
			var full, top bestSorter
			ranked := rankedInto(&full, pop, dir)
			for _, count := range []int{0, 1, 2, n} {
				got := topInto(&top, pop, dir, count)
				if len(got) != count {
					t.Fatalf("topInto(%d) returned %d indices", count, len(got))
				}
				for i := range got {
					if got[i] != ranked[i] {
						t.Fatalf("trial %d, direction %v, %d members: topInto(%d)[%d] = %d, ranking has %d",
							trial, dir, n, count, i, got[i], ranked[i])
					}
				}
			}
		}
	}
}

func TestGenerationalPopulationSizeStable(t *testing.T) {
	for _, gap := range []float64{0.1, 0.5, 0.9, 1.0} {
		cfg := baseConfig(7)
		cfg.GenGap = gap
		e := NewGenerational(cfg)
		for i := 0; i < 10; i++ {
			e.Step()
			if e.Population().Len() != cfg.PopSize {
				t.Fatalf("gap=%v: size %d != %d", gap, e.Population().Len(), cfg.PopSize)
			}
		}
	}
}

func TestSteadyStateReplaceWorstNeverLosesBest(t *testing.T) {
	e := NewSteadyState(baseConfig(8), true)
	prev := e.Population().BestFitness(core.Maximize)
	for i := 0; i < 30; i++ {
		e.Step()
		cur := e.Population().BestFitness(core.Maximize)
		if cur < prev {
			t.Fatalf("steady-state lost best: %v -> %v", prev, cur)
		}
		prev = cur
	}
}

func TestSteadyStateReplaceRandomKeepsBestGuard(t *testing.T) {
	e := NewSteadyState(baseConfig(9), false)
	prev := e.Population().BestFitness(core.Maximize)
	for i := 0; i < 30; i++ {
		e.Step()
		cur := e.Population().BestFitness(core.Maximize)
		if cur < prev {
			t.Fatalf("replace-random lost the best individual: %v -> %v", prev, cur)
		}
		prev = cur
	}
	if e.Name() != "steady-state(random)" {
		t.Fatalf("name = %q", e.Name())
	}
}

// TestSteadyStateTracksIncumbents: after every birth the tracked best and
// worst are what a scan of the population returns, ties included (a
// 10-bit OneMax in a population of 24 is mostly ties), under both
// replacement policies.
func TestSteadyStateTracksIncumbents(t *testing.T) {
	for _, replaceWorst := range []bool{true, false} {
		cfg := baseConfig(11)
		cfg.Problem = problems.OneMax{N: 10}
		cfg.PopSize = 24
		e := NewSteadyState(cfg, replaceWorst)
		e.Step() // finds the incumbents; nothing writes the population after it
		for b := 0; b < 2000; b++ {
			e.birth()
			if want := e.pop.Best(e.dir); e.best != want {
				t.Fatalf("replaceWorst=%v birth %d: tracked best %d, scan %d", replaceWorst, b, e.best, want)
			}
			if want := e.pop.Worst(e.dir); replaceWorst && e.worst != want {
				t.Fatalf("birth %d: tracked worst %d, scan %d", b, e.worst, want)
			}
		}
	}
}

func TestSteadyStateEvaluationsCount(t *testing.T) {
	cfg := baseConfig(10)
	e := NewSteadyState(cfg, true)
	if e.Evaluations() != int64(cfg.PopSize) {
		t.Fatalf("initial evals = %d, want %d", e.Evaluations(), cfg.PopSize)
	}
	e.Step()
	if e.Evaluations() != int64(2*cfg.PopSize) {
		t.Fatalf("after one step evals = %d, want %d", e.Evaluations(), 2*cfg.PopSize)
	}
}

func TestGenerationalEvaluationsGrowPerStep(t *testing.T) {
	cfg := baseConfig(11)
	e := NewGenerational(cfg)
	e0 := e.Evaluations()
	e.Step()
	grew := e.Evaluations() - e0
	// One full generation evaluates PopSize-Elitism fresh offspring.
	if grew != int64(cfg.PopSize-1) {
		t.Fatalf("step evaluated %d, want %d", grew, cfg.PopSize-1)
	}
}

func TestRunDeterministicWithSeed(t *testing.T) {
	run := func() float64 {
		e := NewGenerational(baseConfig(42))
		res := Run(e, RunOptions{Stop: core.MaxGenerations(30)})
		return res.BestFitness
	}
	if run() != run() {
		t.Fatal("same seed produced different results")
	}
}

func TestRunDifferentSeedsDiffer(t *testing.T) {
	res1 := Run(NewGenerational(baseConfig(1)), RunOptions{Stop: core.MaxGenerations(5), Control: engine.Control{Trace: true}})
	res2 := Run(NewGenerational(baseConfig(99)), RunOptions{Stop: core.MaxGenerations(5), Control: engine.Control{Trace: true}})
	same := true
	for i := range res1.Trace {
		if i < len(res2.Trace) && res1.Trace[i].Mean != res2.Trace[i].Mean {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces (suspicious)")
	}
}

func TestRunTrace(t *testing.T) {
	e := NewGenerational(baseConfig(12))
	res := Run(e, RunOptions{Stop: core.MaxGenerations(10), Control: engine.Control{Trace: true}})
	if len(res.Trace) != 11 { // initial sample + 10 steps
		t.Fatalf("trace has %d points, want 11", len(res.Trace))
	}
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].Best < res.Trace[i-1].Best {
			t.Fatal("trace best regressed despite elitism")
		}
		if res.Trace[i].Evaluations <= res.Trace[i-1].Evaluations {
			t.Fatal("trace evaluations not increasing")
		}
	}
}

// TestRunOnStepCallback: a per-step callback is a generation observer —
// generation 0 for the initial population, then once per step, in order.
func TestRunOnStepCallback(t *testing.T) {
	e := NewGenerational(baseConfig(13))
	calls := 0
	onStep := engine.Funcs{Generation: func(s core.Status) {
		if s.Generation != calls {
			t.Fatalf("OnGeneration %d at call %d", s.Generation, calls)
		}
		calls++
	}}
	Run(e, RunOptions{Stop: core.MaxGenerations(7), Control: engine.Control{Observers: []engine.Observer{onStep}}})
	if calls != 8 {
		t.Fatalf("OnGeneration called %d times, want 8 (generation 0 and 7 steps)", calls)
	}
}

func TestRunStagnationStops(t *testing.T) {
	cfg := baseConfig(14)
	cfg.Mutator = nil
	cfg.Crossover = nil // nothing can improve: pure copying
	e := NewGenerational(cfg)
	res := Run(e, RunOptions{Stop: core.AnyOf{
		core.MaxGenerations(1000),
		core.NewStagnation(5),
	}})
	if res.Generations >= 1000 {
		t.Fatal("stagnation never fired")
	}
	if res.StopReason != "stagnation" {
		t.Fatalf("stop reason %q", res.StopReason)
	}
}

func TestRunSolvedAtEval(t *testing.T) {
	e := NewGenerational(baseConfig(15))
	res := Run(e, RunOptions{Stop: core.AnyOf{
		core.MaxGenerations(500),
		core.TargetFitness{Target: 64, Dir: core.Maximize},
	}})
	if !res.Solved {
		t.Skip("run did not solve; cannot check SolvedAtEval")
	}
	if res.SolvedAtEval <= 0 || res.SolvedAtEval > res.Evaluations {
		t.Fatalf("SolvedAtEval=%d outside (0, %d]", res.SolvedAtEval, res.Evaluations)
	}
}

func TestRunPanicsWithoutStop(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Run without Stop did not panic")
		}
	}()
	Run(NewGenerational(baseConfig(16)), RunOptions{})
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{PopSize: 10, RNG: rng.New(1)},                                // no problem
		{Problem: problems.OneMax{N: 8}, PopSize: 10},                 // no rng
		{Problem: problems.OneMax{N: 8}, PopSize: 1, RNG: rng.New(1)}, // pop too small
		{Problem: problems.OneMax{N: 8}, PopSize: 10, RNG: rng.New(1), GenGap: 1.5},
		{Problem: problems.OneMax{N: 8}, PopSize: 10, RNG: rng.New(1), Elitism: 10},
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			NewGenerational(cfg)
		}()
	}
}

func TestMutationOnlyEvolutionWorks(t *testing.T) {
	cfg := baseConfig(17)
	cfg.Crossover = nil
	e := NewGenerational(cfg)
	res := Run(e, RunOptions{Stop: core.MaxGenerations(100)})
	if res.BestFitness < 50 {
		t.Fatalf("mutation-only GA too weak: %v", res.BestFitness)
	}
}

func TestPermutationEngine(t *testing.T) {
	// Smoke test: a permutation problem runs end to end through the engine.
	tsp := tspStub{n: 12}
	cfg := Config{
		Problem:   tsp,
		PopSize:   40,
		Crossover: operators.OX{},
		Mutator:   operators.Inversion{},
		RNG:       rng.New(18),
	}
	e := NewGenerational(cfg)
	res := Run(e, RunOptions{Stop: core.MaxGenerations(50)})
	if res.Evaluations == 0 {
		t.Fatal("no evaluations")
	}
}

// tspStub is a minimal permutation problem: minimise the sum of position
// mismatches relative to identity order (trivially optimised by identity).
type tspStub struct{ n int }

func (p tspStub) Name() string              { return "perm-stub" }
func (p tspStub) Direction() core.Direction { return core.Minimize }
func (p tspStub) NewGenome(r *rng.Source) core.Genome {
	return genome.RandomPermutation(p.n, r)
}
func (p tspStub) Evaluate(g core.Genome) float64 {
	perm := g.(*genome.Permutation)
	miss := 0
	for i := 0; i < p.n; i++ {
		if perm.PositionOf(i) != i {
			miss++
		}
	}
	return float64(miss)
}

// TestRunCachedProblemStats pins the memo-cache plumbing: wrapping the
// problem in core.CachedProblem must leave the evolution trajectory
// bit-identical (cache hits return the memoised fitness, which entered
// the map from the same Evaluate) while the hit/miss counters surface on
// the result without touching the Observer seam.
func TestRunCachedProblemStats(t *testing.T) {
	run := func(wrap bool) *core.Result {
		cfg := baseConfig(77)
		if wrap {
			cfg.Problem = core.NewCachedProblem(cfg.Problem, 0)
		}
		e := NewSteadyState(cfg, true)
		return Run(e, RunOptions{Stop: core.MaxGenerations(200)})
	}
	plain := run(false)
	cached := run(true)

	if plain.BestFitness != cached.BestFitness || plain.Evaluations != cached.Evaluations {
		t.Fatalf("cache changed the run: best %v/%v evals %d/%d",
			plain.BestFitness, cached.BestFitness, plain.Evaluations, cached.Evaluations)
	}
	if plain.CacheHits != 0 || plain.CacheMisses != 0 {
		t.Fatal("unwrapped run reported cache stats")
	}
	if cached.CacheHits == 0 {
		t.Fatal("steady-state revisits produced no cache hits")
	}
	if cached.CacheHits+cached.CacheMisses != cached.Evaluations {
		t.Fatalf("hits+misses = %d, evaluations = %d (hashable genomes must all route through the cache)",
			cached.CacheHits+cached.CacheMisses, cached.Evaluations)
	}
}
