package cellular

// Allocation-budget perf gate for the cellular engine: a grid sweep must
// not allocate at steady state under any update policy (the candidate
// individuals, the synchronous shadow grid and the NRS order buffer are
// all pooled). See internal/ga/perf_gate_test.go for the rationale, and
// for why the gate also counts the mallocs over warmCells updates.

import (
	"fmt"
	"testing"

	"pga/internal/mallocs"
	"pga/internal/operators"
	"pga/internal/problems"
	"pga/internal/rng"
)

func gateEngine(update UpdatePolicy) *Engine {
	return New(Config{
		Problem:   problems.OneMax{N: 128},
		Rows:      10,
		Cols:      10,
		Update:    update,
		Crossover: operators.Uniform{},
		Mutator:   operators.BitFlip{},
		RNG:       rng.New(1),
	})
}

// warmCells is how many cell updates the gate counts mallocs over.
const warmCells = 4096

// mallocsOver sweeps until at least warmCells more cells were evaluated,
// and returns the heap allocations made meanwhile.
func mallocsOver(e *Engine) uint64 {
	return mallocs.Count(func() {
		for start := e.Evaluations(); e.Evaluations()-start < warmCells; {
			e.Step()
		}
	})
}

// TestAllocBudget gates one sweep per update policy at zero steady-state
// allocations.
func TestAllocBudget(t *testing.T) {
	for _, u := range []UpdatePolicy{Synchronous, LineSweep, FixedRandomSweep, NewRandomSweep, UniformChoice} {
		t.Run(u.String(), func(t *testing.T) {
			e := gateEngine(u)
			avg := testing.AllocsPerRun(20, e.Step)
			if avg > 0 {
				t.Errorf("%s sweep: %.1f allocs, budget 0", u, avg)
			}
			if n := mallocsOver(e); n != 0 {
				t.Errorf("%s: %d mallocs over %d warm cell updates, want 0", u, n, warmCells)
			}
		})
	}
}

// BenchmarkGenerationAllocs reports ns/op, B/op and allocs/op for one
// sweep per update policy.
func BenchmarkGenerationAllocs(b *testing.B) {
	for _, u := range []UpdatePolicy{Synchronous, LineSweep, NewRandomSweep} {
		b.Run(fmt.Sprintf("cellular/%s", u), func(b *testing.B) {
			e := gateEngine(u)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}
