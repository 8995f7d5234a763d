package sim

// Allocation-budget perf gate for a SIM generation: every sub-EA's step,
// the archive feeding behind each evaluation and, on schedule, the
// migration epoch allocate nothing once warm.

import (
	"testing"

	"pga/internal/mallocs"
)

// gateStepper returns a scenario's stepper over 16-member sub-EAs that
// migrate every fifth generation into an archive of 8, and a func that
// steps it through its next generation.
func gateStepper(p MultiObjective, s Scenario) func() {
	st := newScenario(Config{Problem: p, Scenario: s, DemeSize: 16, MigrationInterval: 5, ArchiveCap: 8})
	g := 0
	return func() {
		g++
		st.Step(g)
	}
}

// TestAllocBudget gates a generation at zero allocations on every
// scenario with a migration topology: an evaluation writes its objectives
// into its island's buffer, the archive reuses the buffers of the items
// it evicted or crowds out, and migration copies emigrants out into a
// reused outbox and crosses them into reused children. Warm-up runs until
// the archive has held its cap, after which it never needs a new item.
func TestAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    MultiObjective
		s    Scenario
	}{
		{"zdt1/S3", ZDT1{Dim: 8}, S3},
		{"zdt1/S5", ZDT1{Dim: 8}, S5},
		{"zdt1/S6", ZDT1{Dim: 8}, S6},
		{"zdt1/S7", ZDT1{Dim: 8}, S7},
		{"schaffer/S6", Schaffer{}, S6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gen := gateStepper(tc.p, tc.s)
			for i := 0; i < 100; i++ {
				gen()
			}
			if avg := testing.AllocsPerRun(50, gen); avg != 0 {
				t.Errorf("%.1f allocs per generation, want 0", avg)
			}
			if n := mallocs.Count(func() {
				for i := 0; i < 500; i++ {
					gen()
				}
			}); n != 0 {
				t.Errorf("%d mallocs over 500 warm generations, want 0", n)
			}
		})
	}
}

// BenchmarkGenerationAllocs reports ns/op, B/op and allocs/op for one
// generation of the fully connected specialists on ZDT1.
func BenchmarkGenerationAllocs(b *testing.B) {
	b.Run("sim/zdt1-S7", func(b *testing.B) {
		gen := gateStepper(ZDT1{Dim: 8}, S7)
		for i := 0; i < 100; i++ {
			gen() // warm, as the gate is
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			gen()
		}
	})
}
