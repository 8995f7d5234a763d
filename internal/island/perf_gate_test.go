package island

// Allocation-budget perf gate for the island model's sequential
// generation loop. Unlike the flat engines this path has a small fixed
// per-migration-epoch budget: migrant clones genuinely enter the
// receiving populations and the emigrant picks are policy-owned slices,
// so they are not pooled. The gate pins that budget so it cannot creep
// back toward the historical one-allocation-per-birth regime.

import (
	"testing"

	"pga/internal/core"
	"pga/internal/engine"
	"pga/internal/ga"
	"pga/internal/migration"
	"pga/internal/operators"
	"pga/internal/problems"
	"pga/internal/rng"
	"pga/internal/topology"
)

func gateModel() *Model {
	return New(Config{
		Topology: topology.Ring(8),
		Policy:   migration.Policy{Interval: 10, Count: 2},
		NewEngine: func(deme int, r *rng.Source) ga.Engine {
			return ga.NewGenerational(ga.Config{
				Problem:   problems.OneMax{N: 128},
				PopSize:   25,
				Crossover: operators.Uniform{},
				Mutator:   operators.BitFlip{},
				RNG:       r,
			})
		},
		Seed: 1,
	})
}

// TestAllocBudget gates a 10-generation sequential run segment (which
// includes exactly one migration epoch at interval 10): the per-run
// fixed state (Result, stop condition, tracker, PerDemeBest) plus one
// epoch of migrant clones over 8 ring links must stay within a small
// fixed budget — far below one allocation per birth (8 demes × 25
// births × 10 generations = 2000 births per run).
func TestAllocBudget(t *testing.T) {
	m := gateModel()
	for _, e := range m.Engines() {
		e.Step() // build each deme's pooled buffers outside the measured region
	}
	avg := testing.AllocsPerRun(10, func() {
		m.RunSequential(core.MaxGenerations(10), engine.Control{})
	})
	// Measured 125: ~25 fixed run-level allocations plus ~12 per delivered
	// batch over 8 ring links — each emigrant pick and each migrant clone
	// is 3 allocations (individual + genome + gene slice). 150 leaves
	// headroom without tolerating per-birth leaks (2000 births per run).
	if avg > 150 {
		t.Errorf("RunSequential(10 gens): %.1f allocs, budget 150", avg)
	}
}

// BenchmarkGenerationAllocs reports ns/op, B/op and allocs/op for one
// sequential island generation (8 demes × 25, ring).
func BenchmarkGenerationAllocs(b *testing.B) {
	b.Run("island/sequential", func(b *testing.B) {
		m := gateModel()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.RunSequential(core.MaxGenerations(1), engine.Control{})
		}
	})
}
