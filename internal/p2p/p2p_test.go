package p2p

import (
	"slices"
	"testing"

	"pga/internal/core"
	"pga/internal/engine"
	"pga/internal/ga"
	"pga/internal/operators"
	"pga/internal/problems"
	"pga/internal/rng"
)

func engineFactory(bits, pop int) func(int, *rng.Source) ga.Engine {
	return func(peer int, r *rng.Source) ga.Engine {
		return ga.NewGenerational(ga.Config{
			Problem:   problems.OneMax{N: bits},
			PopSize:   pop,
			Crossover: operators.Uniform{},
			Mutator:   operators.BitFlip{},
			RNG:       r,
		})
	}
}

func baseConfig(seed uint64) Config {
	return Config{
		Problem:   problems.OneMax{N: 48},
		Peers:     12,
		NewEngine: engineFactory(48, 12),
		Seed:      seed,
	}
}

func TestOverlaySolvesWithoutChurn(t *testing.T) {
	n := New(baseConfig(1))
	res := n.Run(core.MaxGenerations(200), engine.Control{})
	if !res.Solved {
		t.Fatalf("overlay failed onemax: best=%v", res.BestFitness)
	}
	if res.Messages == 0 {
		t.Fatal("no migration messages")
	}
	if res.Departures != 0 || res.Joins != 0 {
		t.Fatal("churn events without churn")
	}
	if res.AliveAtEnd != 12 {
		t.Fatalf("peers died without churn: %d", res.AliveAtEnd)
	}
}

func TestOverlaySolvesUnderChurn(t *testing.T) {
	cfg := baseConfig(2)
	cfg.ChurnRate = 0.02
	cfg.RejoinRate = 0.5
	n := New(cfg)
	res := n.Run(core.MaxGenerations(300), engine.Control{})
	if !res.Solved {
		t.Fatalf("overlay failed under churn: best=%v", res.BestFitness)
	}
	if res.Departures == 0 {
		t.Fatal("churn never fired at rate 0.02 over 300 gens")
	}
}

func TestOverlayRespectsMinPeers(t *testing.T) {
	cfg := baseConfig(3)
	cfg.ChurnRate = 0.9 // brutal churn
	cfg.RejoinRate = 0.05
	cfg.MinPeers = 3
	n := New(cfg)
	res := n.Run(core.MaxGenerations(50), engine.Control{})
	if res.AliveAtEnd < 3 {
		t.Fatalf("alive peers %d below floor", res.AliveAtEnd)
	}
	if res.Departures == 0 || res.Joins == 0 {
		t.Fatalf("expected churn both ways: dep=%d joins=%d", res.Departures, res.Joins)
	}
}

func TestOverlayDeterministic(t *testing.T) {
	run := func() (float64, int, int) {
		cfg := baseConfig(4)
		cfg.ChurnRate = 0.05
		res := New(cfg).Run(core.MaxGenerations(60), engine.Control{})
		return res.BestFitness, res.Departures, res.Messages
	}
	f1, d1, m1 := run()
	f2, d2, m2 := run()
	if f1 != f2 || d1 != d2 || m1 != m2 {
		t.Fatal("overlay not deterministic per seed")
	}
}

func TestViewsValid(t *testing.T) {
	n := New(baseConfig(5))
	n.Run(core.MaxGenerations(40), engine.Control{})
	for i, p := range n.peers {
		if len(p.view) > n.cfg.ViewSize {
			t.Fatalf("peer %d view too large: %d", i, len(p.view))
		}
		seen := map[int]bool{}
		for _, v := range p.view {
			if v == i {
				t.Fatalf("peer %d has itself in view", i)
			}
			if v < 0 || v >= len(n.peers) {
				t.Fatalf("peer %d view contains invalid id %d", i, v)
			}
			if seen[v] {
				t.Fatalf("peer %d view contains duplicate %d", i, v)
			}
			seen[v] = true
		}
	}
}

func TestChurnDegradesGracefully(t *testing.T) {
	// The DREAM robustness story: moderate churn should not destroy
	// efficacy. Compare best fitness at a fixed budget.
	avg := func(churn float64) float64 {
		sum := 0.0
		for s := uint64(0); s < 5; s++ {
			cfg := baseConfig(100 + s)
			cfg.Problem = problems.OneMax{N: 64}
			cfg.NewEngine = engineFactory(64, 12)
			cfg.ChurnRate = churn
			res := New(cfg).Run(core.MaxGenerations(60), engine.Control{})
			sum += res.BestFitness
		}
		return sum / 5
	}
	stable := avg(0)
	churny := avg(0.05)
	if churny < stable*0.9 {
		t.Fatalf("5%% churn collapsed quality: %v vs %v", churny, stable)
	}
}

func TestEvaluationsIncludeRetiredPeers(t *testing.T) {
	cfg := baseConfig(6)
	cfg.ChurnRate = 0.2
	cfg.RejoinRate = 0.9
	n := New(cfg)
	res := n.Run(core.MaxGenerations(40), engine.Control{})
	// Evaluations must be at least the initial populations of all peers.
	if res.Evaluations < int64(12*12) {
		t.Fatalf("evaluations %d implausibly low", res.Evaluations)
	}
}

func TestValidation(t *testing.T) {
	for i, cfg := range []Config{
		{NewEngine: engineFactory(8, 4)}, // no problem
		{Problem: problems.OneMax{N: 8}}, // no factory
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			New(cfg)
		}()
	}
}

func TestHelpers(t *testing.T) {
	if got := dropValue([]int{1, 2, 3}, 2); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("dropValue %v", got)
	}
	n := New(Config{Problem: problems.OneMax{N: 8}, NewEngine: engineFactory(8, 4), Peers: 5, ViewSize: 3})
	pool := n.mergeViews([]int{1, 2}, []int{2, 3}, 0, 4)
	if want := []int{1, 2, 3, 0, 4}; !slices.Equal(pool, want) {
		t.Fatalf("mergeViews %v, want %v", pool, want)
	}
	n.pool = pool
	s := n.samplePool(make([]int, 0, 3), 2)
	if len(s) != 3 {
		t.Fatalf("samplePool size %d", len(s))
	}
	for _, v := range s {
		if v == 2 {
			t.Fatal("samplePool returned self")
		}
	}
	for i, v := range n.id {
		if v != i {
			t.Fatalf("samplePool left the identity table %v", n.id)
		}
	}
}
