package hga

// Allocation-budget perf gate for the hierarchy's generation: every
// deme's step and, on schedule, the promotion exchange allocate nothing
// once warm.

import (
	"testing"

	"pga/internal/mallocs"
	"pga/internal/operators"
	"pga/internal/problems"
)

// gateStepper returns the stepper of a three-layer hierarchy of 12-member
// demes on 6-dimensional Sphere that promotes every third generation, at
// the given layer fidelities (nil: mixed), and a func that steps it
// through its next generation.
func gateStepper(levels []int) func() {
	m := New(Config{
		Problem:           NewQuantized(problems.Sphere(6)),
		LevelOf:           levels,
		DemeSize:          12,
		MigrationInterval: 3,
		Crossover:         operators.SBX{},
		Mutator:           operators.Polynomial{},
		Seed:              1,
	})
	st := &hierStepper{m: m}
	g := 0
	return func() {
		g++
		st.Step(g)
	}
}

// TestAllocBudget gates a generation at zero allocations: a coarse
// evaluation quantizes into its deme's buffer, promote's re-scoring into
// the Model's, and a promoted or demoted individual is copied into the
// member it displaces.
func TestAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		levels []int
	}{{"mixed", nil}, {"precise-only", []int{0, 0, 0}}} {
		t.Run(tc.name, func(t *testing.T) {
			gen := gateStepper(tc.levels)
			for i := 0; i < 6; i++ {
				gen() // two promotions build every buffer
			}
			if avg := testing.AllocsPerRun(30, gen); avg != 0 {
				t.Errorf("%.1f allocs per generation, want 0", avg)
			}
			if n := mallocs.Count(func() {
				for i := 0; i < 300; i++ {
					gen()
				}
			}); n != 0 {
				t.Errorf("%d mallocs over 300 warm generations, want 0", n)
			}
		})
	}
}

// BenchmarkGenerationAllocs reports ns/op, B/op and allocs/op for one
// generation of the mixed-fidelity hierarchy.
func BenchmarkGenerationAllocs(b *testing.B) {
	b.Run("hga/mixed", func(b *testing.B) {
		gen := gateStepper(nil)
		for i := 0; i < 6; i++ {
			gen() // warm, as the gate is
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			gen()
		}
	})
}
