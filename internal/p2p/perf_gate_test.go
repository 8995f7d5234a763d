package p2p

// Allocation-budget perf gate for an overlay generation: every alive
// peer's step, churn departures and, on gossip epochs, the view exchange
// and migration allocate nothing once warm. A rejoining peer still gets
// a fresh engine, so the gate runs without rejoins.

import (
	"math"
	"testing"

	"pga/internal/mallocs"
	"pga/internal/problems"
)

// gateStepper returns the stepper of an eight-peer overlay of 12-member
// OneMax demes that gossips every second generation, and a func that
// steps it through its next generation. churn is each peer's departure
// chance per generation; a departed peer never rejoins.
func gateStepper(churn float64) func() {
	n := New(Config{
		Problem:     problems.OneMax{N: 64},
		Peers:       8,
		NewEngine:   engineFactory(64, 12),
		GossipEvery: 2,
		ChurnRate:   churn,
		RejoinRate:  math.SmallestNonzeroFloat64,
		MinPeers:    3,
		Seed:        1,
	})
	st := &netStepper{n: n, res: &Result{}}
	g := 0
	return func() {
		g++
		st.Step(g)
	}
}

// TestAllocBudget gates a generation at zero allocations: gossip merges
// and samples views in the network's buffers and rewrites them in place,
// and a migrant is copied into the member it replaces. The churn row
// leaves dead contacts in the views, so gossip's drop-and-redraw path
// runs too.
func TestAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name  string
		churn float64
	}{{"static", 0}, {"departures", 0.02}} {
		t.Run(tc.name, func(t *testing.T) {
			gen := gateStepper(tc.churn)
			for i := 0; i < 10; i++ {
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
// overlay generation without churn.
func BenchmarkGenerationAllocs(b *testing.B) {
	b.Run("p2p/static", func(b *testing.B) {
		gen := gateStepper(0)
		for i := 0; i < 10; i++ {
			gen() // warm, as the gate is
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			gen()
		}
	})
}
