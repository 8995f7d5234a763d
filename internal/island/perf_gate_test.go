package island

// Allocation-budget perf gate for the island model's sequential
// generation loop. A migration epoch allocates nothing once warm: the
// emigrants are copied into per-deme buffers the Model reuses, and the
// Replacer copies them into the members they displace. What is left is
// the run's own fixed state, and the gate pins it so per-epoch or
// per-birth allocations cannot creep back.

import (
	"testing"
	"time"

	"pga/internal/core"
	"pga/internal/engine"
	"pga/internal/ga"
	"pga/internal/mallocs"
	"pga/internal/migration"
	"pga/internal/operators"
	"pga/internal/problems"
	"pga/internal/rng"
	"pga/internal/supervise"
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

// barrierGate returns gateModel's barriered stepper, supervised under
// resilience when it is not nil, and a func that runs its next
// generation as runBarrier's loop does: the step (with the epoch every
// tenth generation), then the supervised checkpoint hook.
func barrierGate(parallel bool, resilience *supervise.Config) func() {
	m := gateModel()
	m.cfg.Resilience = resilience
	st := m.newBarrier(parallel, m.supervise())
	g := 0
	return func() {
		g++
		st.Step(g)
		if st.sup != nil {
			st.checkpoint(core.Status{Generation: g})
		}
	}
}

// TestBarrierAllocBudget gates a barriered generation at zero
// allocations in each discipline: lockstep, a goroutine per deme, and
// supervised, with steps inline or on heartbeat goroutines. The deme
// goroutines start from funcs bound once, a supervised step runs inline
// or from the deme's reused heartbeat slot, and a checkpoint encodes
// into the deme's previous buffer. testing.AllocsPerRun reads the
// process-wide counter, so the goroutines' allocations count; a
// mallocs.Count window 20 times longer catches an append that grows a
// buffer now and then on the calling goroutine. Under -race, sync.Pool
// drops the selectors' pooled scratch at random, so the gate cannot
// hold there and skips.
func TestBarrierAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops on purpose under -race")
	}
	for _, tc := range []struct {
		name       string
		parallel   bool
		resilience *supervise.Config
	}{
		{"sequential", false, nil},
		{"parallel", true, nil},
		{"supervised", true, &supervise.Config{CheckpointEvery: 2}},
		{"supervised-heartbeat", true, &supervise.Config{CheckpointEvery: 2, Heartbeat: time.Minute}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gen := barrierGate(tc.parallel, tc.resilience)
			for i := 0; i < 20; i++ {
				gen() // two epochs and ten checkpoints build every buffer
			}
			if avg := testing.AllocsPerRun(50, gen); avg != 0 {
				t.Errorf("%.1f allocs per generation, want 0", avg)
			}
			// mallocs.Count collects before its window, emptying the
			// selectors' sync.Pool, so the window's first epoch refills
			// it: what must not grow with the window is the rest.
			gens := func(n int) uint64 {
				return mallocs.Count(func() {
					for i := 0; i < n; i++ {
						gen()
					}
				})
			}
			if short, long := gens(10), gens(200); long != short {
				t.Errorf("%d mallocs over 200 warm generations, %d over 10: want as many", long, short)
			}
		})
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
	for _, tc := range []struct {
		name       string
		resilience *supervise.Config
	}{
		{"island/parallel", nil},
		{"island/supervised", &supervise.Config{CheckpointEvery: 2}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			gen := barrierGate(true, tc.resilience)
			for i := 0; i < 20; i++ {
				gen() // warm, as the gate is
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gen()
			}
		})
	}
}
