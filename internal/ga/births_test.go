package ga

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"pga/internal/core"
	"pga/internal/genome"
	"pga/internal/operators"
	"pga/internal/problems"
	"pga/internal/rng"
)

// stepAt runs one Step with the lane gate at min: 0 sends every
// generation to the lanes; math.MaxInt keeps every generation on the
// serial loop, the oracle.
func stepAt(e *Generational, min int) {
	defer func(old int) { minLaneDraws = old }(minLaneDraws)
	minLaneDraws = min
	e.Step()
}

// tookLanes reports whether e's latest generation was bred in lanes.
func tookLanes(e *Generational) bool { return e.lanes != nil && e.lanes.ok }

// sameGeneration fails unless got holds the serial loop's members, their
// fitness bit for bit, its evaluation count and its stream state.
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
		if math.Float64bits(m.Fitness) != math.Float64bits(o.Fitness) || m.Evaluated != o.Evaluated ||
			x.N != y.N || !slices.Equal(x.Words, y.Words) {
			t.Fatalf("%s: member %d differs from the serial loop's", what, i)
		}
	}
}

// TestParallelBirthsMatchSerial holds lane births to the serial loop,
// the engine's algorithm before them: after every step of every
// configuration the members, their fitness bit for bit and the engine
// stream's State() are identical. The gate is lowered so that every
// generation takes the lanes: one pair or many, fewer live lanes than
// sixteen and more pairs than lanes, genomes of one word, whole words
// and tails, each probability branch of both operators, and the
// dangling child of an odd generation. Population 67 (34 pairs) on
// onemax-65, onemax-130 and nk-130 refills lanes mid-generation with
// crossed and copied pairs mixed, at different words of tails. MaxSAT
// and NK are evalheavy-gen's and wire-ring2's problems.
func TestParallelBirthsMatchSerial(t *testing.T) {
	crossovers := []operators.Crossover{nil, operators.Uniform{}, operators.Uniform{P: 1}, operators.Uniform{P: 0.1}}
	mutators := []operators.Mutator{nil, operators.BitFlip{}, operators.BitFlip{P: 1}, operators.BitFlip{P: 0.3}, operators.BitFlip{P: math.NaN()}}
	type shape struct {
		name string
		p    core.Problem
		// refill adds population 67 to the common sizes.
		refill bool
	}
	var shapes []shape
	for _, n := range []int{1, 5, 63, 64, 65, 130, 256} {
		shapes = append(shapes, shape{fmt.Sprintf("onemax-%d", n), problems.OneMax{N: n}, n == 65 || n == 130})
	}
	for _, n := range []int{65, 130} {
		shapes = append(shapes,
			shape{fmt.Sprintf("maxsat-%d", n), problems.NewMaxSAT(n, 4*n, uint64(n)), false},
			shape{fmt.Sprintf("nk-%d", n), problems.NewNKLandscape(n, 4, uint64(n)), n == 130})
	}
	seed, configs := uint64(0), 0
	for _, sh := range shapes {
		pops := []int{2, 3, 7, 20, 21}
		if sh.refill {
			pops = append(pops, 67)
		}
		for _, pop := range pops {
			for _, gap := range []float64{1, 0.5} {
				for _, rate := range []float64{0.3, 0.9, 1} {
					for ci, c := range crossovers {
						for mi, m := range mutators {
							seed++
							build := func() *Generational {
								return NewGenerational(Config{Problem: sh.p, PopSize: pop, GenGap: gap,
									CrossoverRate: rate, Crossover: c, Mutator: m, RNG: rng.New(seed)})
							}
							serial, lanes := build(), build()
							for step := 1; step <= 3; step++ {
								stepAt(serial, math.MaxInt)
								stepAt(lanes, 0)
								what := fmt.Sprintf("%s pop=%d gap=%v rate=%v crossover %d mutator %d, step %d",
									sh.name, pop, gap, rate, ci, mi, step)
								sameGeneration(t, what, lanes, serial)
								if !tookLanes(lanes) {
									t.Fatalf("%s: not bred in lanes", what)
								}
							}
							configs++
						}
					}
				}
			}
		}
	}
	t.Logf("%d configurations, every one bred in lanes", configs)
}

// TestParallelBirthsFallBack: a wrong leap puts every pair's planned end
// off by a draw, the lanes' end-state check catches it, and the serial
// re-breed keeps the bytes.
func TestParallelBirthsFallBack(t *testing.T) {
	defer func(f func(int) *rng.Leap) { newLeap = f }(newLeap)
	for _, skew := range []int{-1, 1} {
		newLeap = func(d int) *rng.Leap { return rng.NewLeap(max(d+skew, 0)) }
		serial, lanes := NewGenerational(baseConfig(40)), NewGenerational(baseConfig(40))
		for step := 1; step <= 5; step++ {
			stepAt(serial, math.MaxInt)
			stepAt(lanes, 0)
			sameGeneration(t, fmt.Sprintf("skew %+d, step %d", skew, step), lanes, serial)
			if lanes.lanes == nil || tookLanes(lanes) {
				t.Fatalf("skew %+d, step %d: the wrong leap was not caught by the lanes", skew, step)
			}
		}
	}
}

// BenchmarkBirths times the serial loop against the lanes, over shapes
// whose declared draws per generation straddle minLaneDraws: the sweep
// that sized it. onemax-1024 at pop 200 is bitwise-gen's shape, maxsat-256
// evalheavy-gen's, nk-256 at pop 50 wire-ring2's island; the small
// shapes at pop 12–50 are those of the island, p2p and sweep models'
// engines. "gen" times one generation; "run20" builds an engine and
// runs it 20 generations, so that the first lane generation's leap
// build is counted.
func BenchmarkBirths(b *testing.B) {
	for _, sh := range []struct {
		name string
		p    core.Problem
		pop  int
	}{
		{"onemax-64/pop30", problems.OneMax{N: 64}, 30},
		{"onemax-64/pop50", problems.OneMax{N: 64}, 50},
		{"knapsack-64/pop30", problems.NewKnapsack(64, 1), 30},
		{"knapsack-64/pop50", problems.NewKnapsack(64, 1), 50},
		{"nk-64/pop12", problems.NewNKLandscape(64, 4, 1), 12},
		{"onemax-128/pop200", problems.OneMax{N: 128}, 200},
		{"nk-256/pop50", problems.NewNKLandscape(256, 4, 1), 50},
		{"maxsat-256/pop200", problems.NewMaxSAT(256, 1024, 1), 200},
		{"onemax-1024/pop200", problems.OneMax{N: 1024}, 200},
	} {
		cfg := func() Config {
			return Config{Problem: sh.p, PopSize: sh.pop, Crossover: operators.Uniform{},
				Mutator: operators.BitFlip{}, RNG: rng.New(1)}
		}
		for _, m := range []struct {
			name string
			min  int
		}{{"serial", math.MaxInt}, {"lanes", 0}} {
			b.Run(sh.name+"/gen/"+m.name, func(b *testing.B) {
				defer func(old int) { minLaneDraws = old }(minLaneDraws)
				minLaneDraws = m.min
				e := NewGenerational(cfg())
				e.Step()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.Step()
				}
			})
			b.Run(sh.name+"/run20/"+m.name, func(b *testing.B) {
				defer func(old int) { minLaneDraws = old }(minLaneDraws)
				minLaneDraws = m.min
				for i := 0; i < b.N; i++ {
					e := NewGenerational(cfg())
					for g := 0; g < 20; g++ {
						e.Step()
					}
				}
			})
		}
	}
}
