package ga

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"pga/internal/core"
	"pga/internal/genome"
	"pga/internal/operators"
	"pga/internal/problems"
	"pga/internal/rng"
)

// stepAt runs one Step with the two-worker draw minimum at min: 0 sends
// every generation of two or more pairs to the two workers; math.MaxInt
// keeps every generation on the serial loop, the oracle.
func stepAt(e *Generational, min int) {
	defer func(old int) { minParallelDraws = old }(minParallelDraws)
	minParallelDraws = min
	e.Step()
}

// tookTwo reports whether e's latest two-worker attempt passed its check.
func tookTwo(e *Generational) bool {
	return e.two != nil && e.two.own.ok && e.two.helper.ok
}

// sameGeneration fails unless got holds the serial loop's members, their
// fitness, its evaluation count and its stream state.
func sameGeneration(t *testing.T, what string, got, serial *Generational) {
	t.Helper()
	if g, w := got.cfg.RNG.State(), serial.cfg.RNG.State(); g != w {
		t.Fatalf("%s: stream state %v, serial loop %v", what, g, w)
	}
	if g, w := got.Evaluations(), serial.Evaluations(); g != w {
		t.Fatalf("%s: %d evaluations, serial loop %d", what, g, w)
	}
	for i, m := range got.pop.Members {
		o := serial.pop.Members[i]
		x, y := m.Genome.(*genome.BitString), o.Genome.(*genome.BitString)
		if m.Fitness != o.Fitness || m.Evaluated != o.Evaluated || x.N != y.N || !slices.Equal(x.Words, y.Words) {
			t.Fatalf("%s: member %d differs from the serial loop's", what, i)
		}
	}
}

// TestParallelBirthsMatchSerial holds two-worker births to the serial
// loop, the engine's algorithm before them: after every step of every
// configuration the members, their fitness and the engine stream's
// State() are identical. The draw minimum is lowered so that every
// generation of two or more pairs takes the two workers, on two Ps, so
// that `go test -race` runs the workers concurrently too.
func TestParallelBirthsMatchSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	crossovers := []operators.Crossover{nil, operators.Uniform{}, operators.Uniform{P: 1}, operators.Uniform{P: 0.1}}
	mutators := []operators.Mutator{operators.BitFlip{}, operators.BitFlip{P: 1}, operators.BitFlip{P: 0.3}, operators.BitFlip{P: math.NaN()}}
	seed, configs, two := uint64(0), 0, 0
	for _, n := range []int{1, 5, 63, 64, 65, 130, 256} {
		for _, pop := range []int{2, 3, 7, 20, 21} {
			for _, gap := range []float64{1, 0.5} {
				for _, rate := range []float64{0.3, 0.9, 1} {
					for ci, c := range crossovers {
						for mi, m := range mutators {
							seed++
							build := func() *Generational {
								return NewGenerational(Config{Problem: problems.OneMax{N: n}, PopSize: pop, GenGap: gap,
									CrossoverRate: rate, Crossover: c, Mutator: m, RNG: rng.New(seed)})
							}
							serial, par := build(), build()
							pairs := (par.births() + 1) / 2
							for step := 1; step <= 3; step++ {
								stepAt(serial, math.MaxInt)
								stepAt(par, 0)
								what := fmt.Sprintf("n=%d pop=%d gap=%v rate=%v crossover %d mutator %d, step %d",
									n, pop, gap, rate, ci, mi, step)
								sameGeneration(t, what, par, serial)
								if pairs >= 2 && !tookTwo(par) {
									t.Fatalf("%s: %d pairs, not bred on two workers", what, pairs)
								}
							}
							configs++
							if pairs >= 2 {
								two++
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d configurations, %d of them bred on two workers", configs, two)
}

// skewed returns a declaration that miscounts every mutator by skew.
func skewed(skew int) func(any, core.Genome) (int, bool) {
	return func(op any, g core.Genome) (int, bool) {
		d, ok := operators.FixedDraws(op, g)
		if _, isMutator := op.(operators.Mutator); isMutator {
			d += skew
		}
		return d, ok
	}
}

// TestParallelBirthsFallBack: a wrong declaration fails the workers'
// check, and the serial re-breed keeps the bytes.
func TestParallelBirthsFallBack(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	defer func(f func(any, core.Genome) (int, bool)) { fixedDraws = f }(fixedDraws)
	for _, skew := range []int{-1, 1} {
		fixedDraws = skewed(skew)
		serial, par := NewGenerational(baseConfig(40)), NewGenerational(baseConfig(40))
		for step := 1; step <= 5; step++ {
			stepAt(serial, math.MaxInt)
			stepAt(par, 0)
			sameGeneration(t, fmt.Sprintf("skew %+d, step %d", skew, step), par, serial)
			if par.two == nil || tookTwo(par) {
				t.Fatalf("skew %+d, step %d: the wrong declaration was not caught by the workers", skew, step)
			}
		}
	}
}

// panicMutator panics whenever it mutates.
type panicMutator struct{}

func (panicMutator) Name() string                    { return "panic" }
func (panicMutator) Mutate(core.Genome, *rng.Source) { panic("mutate") }

// TestParallelBirthsPanicOnCaller: a panic on either worker is raised
// again by the serial re-breed, on the goroutine that called Step.
func TestParallelBirthsPanicOnCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	defer func(f func(any, core.Genome) (int, bool)) { fixedDraws = f }(fixedDraws)
	fixedDraws = func(op any, g core.Genome) (int, bool) {
		if _, ok := op.(panicMutator); ok {
			return 0, true
		}
		return operators.FixedDraws(op, g)
	}
	cfg := baseConfig(41)
	cfg.Mutator = panicMutator{}
	e := NewGenerational(cfg)
	defer func() {
		if r := recover(); r != "mutate" || e.two == nil {
			t.Fatalf("Step raised %v (two workers tried: %v), want the mutator's panic after a two-worker attempt", r, e.two != nil)
		}
	}()
	stepAt(e, 0)
}

// BenchmarkBirths times one generation at pop 200 on the serial loop and
// on two workers, over shapes whose declared draws per generation (100
// pairs × 3n) straddle minParallelDraws: the sweep that sized it. onemax
// is bitwise-gen's problem, maxsat (clauses = 4n) evalheavy-gen's.
func BenchmarkBirths(b *testing.B) {
	for _, sh := range []struct {
		name string
		p    core.Problem
	}{
		{"onemax-128", problems.OneMax{N: 128}},
		{"onemax-256", problems.OneMax{N: 256}},
		{"onemax-512", problems.OneMax{N: 512}},
		{"onemax-1024", problems.OneMax{N: 1024}},
		{"maxsat-256", problems.NewMaxSAT(256, 1024, 1)},
		{"maxsat-512", problems.NewMaxSAT(512, 2048, 1)},
	} {
		for _, m := range []struct {
			name string
			min  int
		}{{"serial", math.MaxInt}, {"two", 0}} {
			b.Run(sh.name+"/"+m.name, func(b *testing.B) {
				defer func(old int) { minParallelDraws = old }(minParallelDraws)
				minParallelDraws = m.min
				e := NewGenerational(Config{Problem: sh.p, PopSize: 200, Crossover: operators.Uniform{},
					Mutator: operators.BitFlip{}, RNG: rng.New(1)})
				e.Step()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.Step()
				}
			})
		}
	}
}
