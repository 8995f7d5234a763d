package cellular

import (
	"testing"

	"pga/internal/core"
	"pga/internal/engine"
	"pga/internal/ga"
	"pga/internal/island"
	"pga/internal/migration"
	"pga/internal/operators"
	"pga/internal/problems"
	"pga/internal/rng"
	"pga/internal/topology"
)

func baseCfg(seed uint64) Config {
	return Config{
		Problem:   problems.OneMax{N: 48},
		Rows:      8,
		Cols:      8,
		Crossover: operators.Uniform{},
		Mutator:   operators.BitFlip{},
		RNG:       rng.New(seed),
	}
}

func TestCellularSolvesOneMax(t *testing.T) {
	e := New(baseCfg(1))
	res := ga.Run(e, ga.RunOptions{Stop: core.AnyOf{
		core.MaxGenerations(200),
		core.TargetFitness{Target: 48, Dir: core.Maximize},
	}})
	if !res.Solved {
		t.Fatalf("cellular GA failed onemax: best=%v", res.BestFitness)
	}
}

func TestCellularAllUpdatePoliciesRun(t *testing.T) {
	for _, u := range []UpdatePolicy{Synchronous, LineSweep, FixedRandomSweep, NewRandomSweep, UniformChoice} {
		cfg := baseCfg(2)
		cfg.Update = u
		e := New(cfg)
		before := e.Population().BestFitness(core.Maximize)
		for i := 0; i < 10; i++ {
			e.Step()
		}
		after := e.Population().BestFitness(core.Maximize)
		if after < before {
			t.Fatalf("%s: best regressed %v -> %v (replace-if-better violated)", u, before, after)
		}
		if e.Name() == "" {
			t.Fatal("empty name")
		}
	}
}

func TestCellularAllNeighborhoods(t *testing.T) {
	for _, nb := range []Neighborhood{VonNeumann, Moore, Linear9} {
		cfg := baseCfg(3)
		cfg.Neighborhood = nb
		e := New(cfg)
		e.Step()
		if e.Evaluations() == 0 {
			t.Fatalf("%s: no evaluations", nb)
		}
	}
}

func TestNeighborhoodShapes(t *testing.T) {
	cfg := baseCfg(4)
	cfg.Rows, cfg.Cols = 6, 6
	e := New(cfg)
	if got := len(e.neighborhood(0)); got != 4 {
		t.Fatalf("L5 neighbourhood size %d, want 4", got)
	}
	cfg.Neighborhood = Moore
	e = New(cfg)
	if got := len(e.neighborhood(7)); got != 8 {
		t.Fatalf("C9 neighbourhood size %d, want 8", got)
	}
	cfg.Neighborhood = Linear9
	e = New(cfg)
	if got := len(e.neighborhood(7)); got != 8 {
		t.Fatalf("L9 neighbourhood size %d, want 8", got)
	}
}

func TestNeighborhoodTorusWraps(t *testing.T) {
	cfg := baseCfg(5)
	cfg.Rows, cfg.Cols = 4, 4
	e := New(cfg)
	// Corner cell 0 wraps to row 3 and col 3.
	nbrs := e.neighborhood(0)
	want := map[int]bool{12: true, 4: true, 3: true, 1: true}
	for _, n := range nbrs {
		if !want[n] {
			t.Fatalf("unexpected neighbour %d of corner", n)
		}
	}
	if len(nbrs) != 4 {
		t.Fatalf("corner has %d neighbours", len(nbrs))
	}
}

func TestNeighborhoodTinyGridNoSelfNoDup(t *testing.T) {
	cfg := baseCfg(6)
	cfg.Rows, cfg.Cols = 2, 2
	cfg.Neighborhood = Moore
	e := New(cfg)
	for i := 0; i < 4; i++ {
		seen := map[int]bool{}
		for _, n := range e.neighborhood(i) {
			if n == i {
				t.Fatal("self in neighbourhood")
			}
			if seen[n] {
				t.Fatal("duplicate in neighbourhood")
			}
			seen[n] = true
		}
	}
}

func TestCellularDeterministic(t *testing.T) {
	run := func() float64 {
		e := New(baseCfg(7))
		for i := 0; i < 15; i++ {
			e.Step()
		}
		return e.Population().BestFitness(core.Maximize)
	}
	if run() != run() {
		t.Fatal("cellular engine not deterministic")
	}
}

func TestCellularEvaluationCount(t *testing.T) {
	cfg := baseCfg(8)
	e := New(cfg)
	init := e.Evaluations()
	if init != 64 {
		t.Fatalf("initial evals %d, want 64", init)
	}
	e.Step()
	if e.Evaluations() != 128 {
		t.Fatalf("after one sweep evals %d, want 128", e.Evaluations())
	}
}

func TestCellularValidation(t *testing.T) {
	for i, cfg := range []Config{
		{RNG: rng.New(1)},                // no problem
		{Problem: problems.OneMax{N: 8}}, // no rng
		{Problem: problems.OneMax{N: 8}, Rows: 1, Cols: 1, RNG: rng.New(1)}, // too small
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

func TestCellularInsideIslandModel(t *testing.T) {
	// Alba & Troya 2002: cellular GAs as island demes.
	m := island.New(island.Config{
		Topology: topology.Ring(2),
		Policy:   migration.Policy{Interval: 5, Count: 1},
		NewEngine: func(d int, r *rng.Source) ga.Engine {
			return New(Config{
				Problem: problems.OneMax{N: 32},
				Rows:    5, Cols: 5,
				Crossover: operators.Uniform{},
				Mutator:   operators.BitFlip{},
				RNG:       r,
			})
		},
		Seed: 9,
	})
	res := m.RunSequential(core.AnyOf{
		core.MaxGenerations(150),
		core.TargetFitness{Target: 32, Dir: core.Maximize},
	}, engine.Control{})
	if !res.Solved {
		t.Fatalf("cellular islands failed: %v", res.BestFitness)
	}
}

func TestTakeoverSimInitialState(t *testing.T) {
	s := NewTakeoverSim(10, 10, VonNeumann, Synchronous, 1)
	if f := s.BestFraction(); f != 0.01 {
		t.Fatalf("initial best fraction %v, want 0.01", f)
	}
}

func TestTakeoverMonotone(t *testing.T) {
	for _, u := range []UpdatePolicy{Synchronous, LineSweep, FixedRandomSweep, NewRandomSweep, UniformChoice} {
		curve := TakeoverCurve(12, 12, VonNeumann, u, 3, 500)
		for i := 1; i < len(curve); i++ {
			if curve[i] < curve[i-1] {
				t.Fatalf("%s: takeover fraction regressed at sweep %d", u, i)
			}
		}
		if curve[len(curve)-1] != 1 {
			t.Fatalf("%s: takeover incomplete after 500 sweeps: %v", u, curve[len(curve)-1])
		}
	}
}

func TestTakeoverSyncSlowerThanAsync(t *testing.T) {
	// Giacobini 2003's headline qualitative result: asynchronous updates
	// have higher selection pressure (shorter takeover) than synchronous.
	const runs, maxSweeps = 10, 1000
	sync := TakeoverTime(16, 16, VonNeumann, Synchronous, runs, maxSweeps)
	ls := TakeoverTime(16, 16, VonNeumann, LineSweep, runs, maxSweeps)
	nrs := TakeoverTime(16, 16, VonNeumann, NewRandomSweep, runs, maxSweeps)
	if !(ls < sync) {
		t.Fatalf("line sweep (%v) not faster than synchronous (%v)", ls, sync)
	}
	if !(nrs < sync) {
		t.Fatalf("new random sweep (%v) not faster than synchronous (%v)", nrs, sync)
	}
}

func TestTakeoverGridSizeScales(t *testing.T) {
	small := TakeoverTime(8, 8, VonNeumann, Synchronous, 5, 1000)
	large := TakeoverTime(20, 20, VonNeumann, Synchronous, 5, 1000)
	if large <= small {
		t.Fatalf("takeover on larger grid (%v) not slower than smaller (%v)", large, small)
	}
}

func TestTakeoverSimValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for tiny grid")
		}
	}()
	NewTakeoverSim(1, 5, VonNeumann, Synchronous, 1)
}

func TestPolicyAndNeighborhoodStrings(t *testing.T) {
	for _, u := range []UpdatePolicy{Synchronous, LineSweep, FixedRandomSweep, NewRandomSweep, UniformChoice, UpdatePolicy(99)} {
		if u.String() == "" {
			t.Fatal("empty update policy name")
		}
	}
	for _, n := range []Neighborhood{VonNeumann, Moore, Linear9, Neighborhood(99)} {
		if n.String() == "" {
			t.Fatal("empty neighbourhood name")
		}
	}
}
