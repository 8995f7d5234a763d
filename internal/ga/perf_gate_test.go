package ga

// The allocation-budget perf gate for the sequential engines: the hot
// path of a generation step must not allocate at steady state (ROADMAP:
// "as fast as the hardware allows" — on the single-core reference setup
// GC pressure, not arithmetic, dominated a step before the pooled
// double-buffer rewrite). CI runs these tests on every push; a regression
// that reintroduces per-birth allocations fails the build rather than
// silently eating the speedup.
//
// testing.AllocsPerRun performs one warm-up call before measuring, which
// is what lets the engines build their pooled buffers lazily. Its
// integer average over 20 steps rounds away an append that grows an
// engine field (a few reallocations, amortized), so every zero-budget
// row also counts the mallocs over warmBirths more births.

import (
	"strings"
	"testing"

	"pga/internal/core"
	"pga/internal/mallocs"
	"pga/internal/operators"
	"pga/internal/problems"
	"pga/internal/rng"
)

// allocGateCase is one engine configuration with its allocation budget
// (average allocations per Step, measured after warm-up).
type allocGateCase struct {
	name   string
	engine Engine
	budget float64
}

func allocGateCases() []allocGateCase {
	oneMax := func() Config {
		return Config{
			Problem:   problems.OneMax{N: 128},
			PopSize:   100,
			Crossover: operators.Uniform{},
			Mutator:   operators.BitFlip{},
			RNG:       rng.New(1),
		}
	}
	sphere := func() Config {
		return Config{
			Problem:   problems.Sphere(16),
			PopSize:   100,
			Crossover: operators.SBX{},
			Mutator:   operators.Gaussian{},
			RNG:       rng.New(1),
		}
	}
	// The permutation benchmark (QAP stands in for TSP): ERX was the last
	// crossover without an in-place variant, so this case gates the
	// scratch-based adjacency rewrite at zero allocations per step.
	qap := func() Config {
		return Config{
			Problem:   problems.NewQAP(16, 3),
			PopSize:   100,
			Crossover: operators.ERX{},
			Mutator:   operators.Swap{},
			RNG:       rng.New(1),
		}
	}
	// Word-wise operators on the packed bitset: the whole point of the
	// []uint64 layout is that word-granular crossover and mutation touch
	// no per-bit state, so they must be zero-alloc too. N % 64 != 0
	// keeps the tail-word masking on the measured path.
	wordOps := func() Config {
		return Config{
			Problem:   problems.OneMax{N: 150},
			PopSize:   100,
			Crossover: operators.KPoint{K: 2},
			Mutator:   operators.BlockFlip{},
			RNG:       rng.New(1),
		}
	}
	// The compiled fitness kernels: the bit-sliced batch forms of MaxSAT
	// and NK (their 8 KiB lane tiles and counter planes must stay on the
	// evaluator's stack) under the generational engine, and MaxSAT's
	// scalar kernel under steady-state births. 199 pending genomes of
	// 100 bits leave a 7-lane last block and a partial transpose block.
	bits := func(p core.Problem) Config {
		return Config{
			Problem:   p,
			PopSize:   200,
			Crossover: operators.Uniform{},
			Mutator:   operators.BitFlip{},
			RNG:       rng.New(1),
		}
	}
	// The bit-wise k-point family: its cuts come from the scratch's
	// identity table, which SampleInto hands back unchanged.
	kpoint := func(c operators.Crossover) Config {
		cfg := wordOps()
		cfg.Crossover, cfg.Mutator = c, operators.BitFlip{}
		return cfg
	}
	gapCfg := oneMax()
	gapCfg.GenGap = 0.5
	gapCfg.Elitism = 4
	// The planned selectors: their order and wheel tables live in the
	// engine's (or each worker's) scratch, built once per generation — or
	// once per steady-state birth — and never reallocated.
	withSelector := func(sel operators.Selector) Config {
		c := sphere()
		c.Selector = sel
		return c
	}
	return []allocGateCase{
		{"generational/onemax", NewGenerational(oneMax()), 0},
		{"generational/onemax-wordops", NewGenerational(wordOps()), 0},
		{"steady-state/onemax-wordops", NewSteadyState(func() Config {
			c := wordOps()
			c.Crossover = operators.UniformWord{}
			return c
		}(), true), 0},
		{"generational/onemax-twopoint", NewGenerational(kpoint(operators.TwoPoint{})), 0},
		{"steady-state/onemax-kpointword", NewSteadyState(kpoint(operators.KPoint{K: 7}), true), 0},
		{"generational/sphere", NewGenerational(sphere()), 0},
		{"generational/qap-erx", NewGenerational(qap()), 0},
		{"generational/gap+elitism", NewGenerational(gapCfg), 0},
		{"generational/rank-selection", NewGenerational(withSelector(operators.LinearRank{})), 0},
		{"generational/roulette", NewGenerational(withSelector(operators.Roulette{})), 0},
		{"generational/truncation", NewGenerational(withSelector(operators.Truncation{})), 0},
		{"steady-state/rank-selection", NewSteadyState(withSelector(operators.LinearRank{}), true), 0},
		{"steady-state/onemax", NewSteadyState(oneMax(), true), 0},
		{"steady-state/sphere", NewSteadyState(sphere(), false), 0},
		{"generational/maxsat-batch", NewGenerational(bits(problems.NewMaxSAT(100, 400, 1))), 0},
		{"steady-state/maxsat", NewSteadyState(bits(problems.NewMaxSAT(100, 400, 1)), true), 0},
		{"generational/nk", NewGenerational(bits(problems.NewNKLandscape(100, 4, 1))), 0},
		// The shared-memory engine starts its workers from funcs bound
		// once and joins them on its own WaitGroup. AllocsPerRun reads
		// the process-wide counter, so the workers' allocations count.
		{"parallel-generational/onemax", NewParallelGenerational(oneMax(), 4), 0},
		{"parallel-generational/rank-selection", NewParallelGenerational(withSelector(operators.LinearRank{}), 4), 0},
		// Births in lanes (births.go): a generation above the draw
		// minimum plans, leaps and breeds eight pairs at a time on
		// pooled state.
		{"generational/onemax-1024-lanes", NewGenerational(Config{
			Problem:   problems.OneMax{N: 1024},
			PopSize:   200,
			Crossover: operators.Uniform{},
			Mutator:   operators.BitFlip{},
			RNG:       rng.New(1),
		}), 0},
	}
}

// warmBirths is how many births the zero-budget rows count mallocs
// over: an append that grows a field reallocates several times in 4 096
// births.
const warmBirths = 4096

// mallocsOver steps the engine until it has evaluated at least
// warmBirths more genomes, and returns the heap allocations made
// meanwhile.
func mallocsOver(e Engine) uint64 {
	return mallocs.Count(func() {
		for start := e.Evaluations(); e.Evaluations()-start < warmBirths; {
			e.Step()
		}
	})
}

// TestAllocBudget is the perf gate: each engine's Step must stay within
// its allocation budget (zero for the sequential engines).
func TestAllocBudget(t *testing.T) {
	for _, tc := range allocGateCases() {
		t.Run(tc.name, func(t *testing.T) {
			avg := testing.AllocsPerRun(20, tc.engine.Step)
			if avg > tc.budget {
				t.Errorf("%s: %.1f allocs per Step, budget %.0f", tc.name, avg, tc.budget)
			}
			if tc.budget == 0 {
				if n := mallocsOver(tc.engine); n != 0 {
					t.Errorf("%s: %d mallocs over %d warm births, want 0", tc.name, n, warmBirths)
				}
			}
			if e, ok := tc.engine.(*Generational); ok && strings.HasSuffix(tc.name, "-lanes") && !tookLanes(e) {
				t.Errorf("%s: the steps were not bred in lanes", tc.name)
			}
		})
	}
}

// TestRunAllocBudget gates the Run loop's record path: with tracing off,
// driving an engine for 50 generations must allocate only the fixed
// run-level state (result, stop condition, one best-tracker individual),
// not per-generation clones.
func TestRunAllocBudget(t *testing.T) {
	e := NewGenerational(Config{
		Problem:   problems.OneMax{N: 128},
		PopSize:   100,
		Crossover: operators.Uniform{},
		Mutator:   operators.BitFlip{},
		RNG:       rng.New(1),
	})
	e.Step() // build pooled buffers outside the measured region
	avg := testing.AllocsPerRun(5, func() {
		Run(e, RunOptions{Stop: core.MaxGenerations(50)})
	})
	// ~10 fixed allocations per Run call (Result, trackers, interfaces);
	// 50 generations must not scale it.
	if avg > 20 {
		t.Errorf("Run(50 gens): %.1f allocs, budget 20 (per-generation allocation leak)", avg)
	}
}

// ---- per-engine micro-benchmarks of one generation step ----

// BenchmarkGenerationAllocs reports ns/op, B/op and allocs/op for one
// generation equivalent of every sequential engine; `make bench` records
// the numbers in BENCH_3.json.
func BenchmarkGenerationAllocs(b *testing.B) {
	for _, tc := range allocGateCases() {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tc.engine.Step()
			}
		})
	}
}
