package island

// Allocation-budget perf gate for the island model's sequential
// generation loop. A migration epoch allocates nothing once warm: the
// emigrants are copied into per-deme buffers the Model reuses, and the
// Replacer copies them into the members they displace. What is left is
// the run's own fixed state, and the gate pins it so per-epoch or
// per-birth allocations cannot creep back.

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
// includes exactly one migration epoch at interval 10) at the run's
// fixed state: the Result, the stop condition, the tracker and
// PerDemeBest, 6 allocations. The epoch over 8 ring links and the 2000
// births (8 demes × 25 births × 10 generations) add none. Until
// migration copied in, each delivered batch cost ≈ 12 allocations and
// the budget was 150.
func TestAllocBudget(t *testing.T) {
	m := gateModel()
	for _, e := range m.Engines() {
		e.Step() // build each deme's pooled buffers outside the measured region
	}
	m.RunSequential(core.MaxGenerations(10), engine.Control{}) // and the exchange's
	budget := 6.0
	if raceEnabled {
		// The race detector makes sync.Pool drop a share of what is put
		// back, so the selectors' pooled scratch is allocated again now
		// and then; the budget from before migration copied in holds.
		budget = 150
	}
	if avg := testing.AllocsPerRun(10, func() {
		m.RunSequential(core.MaxGenerations(10), engine.Control{})
	}); avg > budget {
		t.Errorf("RunSequential(10 gens): %.1f allocs, budget %g", avg, budget)
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
