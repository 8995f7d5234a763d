package island

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

// onemaxEngines returns an engine factory for OneMax(bits) with the given
// per-deme population.
func onemaxEngines(bits, popSize int) func(int, *rng.Source) ga.Engine {
	return enginesFor(problems.OneMax{N: bits}, popSize)
}

// enginesFor returns a generational bit-string engine factory for p.
func enginesFor(p core.Problem, popSize int) func(int, *rng.Source) ga.Engine {
	return func(deme int, r *rng.Source) ga.Engine {
		return ga.NewGenerational(ga.Config{
			Problem:   p,
			PopSize:   popSize,
			Selector:  operators.Tournament{K: 2},
			Crossover: operators.Uniform{},
			Mutator:   operators.BitFlip{},
			RNG:       r,
		})
	}
}

func TestSequentialSolvesOneMax(t *testing.T) {
	m := New(Config{
		Topology:  topology.Ring(4),
		Policy:    migration.Policy{Interval: 5, Count: 2},
		NewEngine: onemaxEngines(64, 30),
		Seed:      1,
	})
	res := m.RunSequential(core.AnyOf{
		core.MaxGenerations(300),
		core.TargetFitness{Target: 64, Dir: core.Maximize},
	}, engine.Control{})
	if !res.Solved {
		t.Fatalf("island model failed onemax: best=%v", res.BestFitness)
	}
	if res.Migrations == 0 {
		t.Fatal("no migrations happened")
	}
	if len(res.PerDemeBest) != 4 {
		t.Fatal("per-deme stats missing")
	}
}

// recordStatuses is a run control whose one observer appends every status
// the run reports to *into.
func recordStatuses(into *[]core.Status) engine.Control {
	return engine.Control{Observers: []engine.Observer{engine.Funcs{Generation: func(s core.Status) {
		*into = append(*into, s)
	}}}}
}

func TestSequentialDeterministic(t *testing.T) {
	run := func() (float64, int64, int) {
		m := New(Config{
			Topology:  topology.BiRing(3),
			Policy:    migration.Policy{Interval: 4, Count: 1},
			NewEngine: onemaxEngines(48, 20),
			Seed:      7,
		})
		var trace []core.Status
		res := m.RunSequential(core.MaxGenerations(40), recordStatuses(&trace))
		return res.BestFitness, res.Evaluations, len(trace)
	}
	f1, e1, t1 := run()
	f2, e2, t2 := run()
	if f1 != f2 || e1 != e2 || t1 != t2 {
		t.Fatalf("sequential island run not deterministic: (%v,%v,%v) vs (%v,%v,%v)", f1, e1, t1, f2, e2, t2)
	}
}

func TestMigrationImprovesOverIsolated(t *testing.T) {
	// Cantú-Paz: isolated demes are impractical — with the same effort,
	// connected demes reach better fitness on a deceptive problem.
	// Compare best fitness after a fixed budget, averaged over seeds.
	avg := func(top func(int) topology.Topology, interval int) float64 {
		sum := 0.0
		const runs = 5
		for s := uint64(0); s < runs; s++ {
			m := New(Config{
				Topology: top(6),
				Policy:   migration.Policy{Interval: interval, Count: 2},
				NewEngine: func(d int, r *rng.Source) ga.Engine {
					return ga.NewGenerational(ga.Config{
						Problem:   problems.DeceptiveTrap{Blocks: 10, K: 4},
						PopSize:   26,
						Crossover: operators.TwoPoint{},
						Mutator:   operators.BitFlip{},
						RNG:       r,
					})
				},
				Seed: s,
			})
			res := m.RunSequential(core.MaxGenerations(60), engine.Control{})
			sum += res.BestFitness
		}
		return sum / runs
	}
	connected := avg(func(n int) topology.Topology { return topology.BiRing(n) }, 5)
	isolated := avg(topology.Isolated, 0)
	if connected < isolated {
		t.Fatalf("migration hurt: connected=%v isolated=%v", connected, isolated)
	}
}

func TestParallelSyncSolves(t *testing.T) {
	m := New(Config{
		Topology:  topology.Ring(4),
		Policy:    migration.Policy{Interval: 5, Count: 2, Sync: true},
		NewEngine: onemaxEngines(48, 25),
		Seed:      3,
	})
	res := m.RunParallel(core.MaxGenerations(300), engine.Control{})
	if !res.Solved {
		t.Fatalf("sync-parallel failed: best=%v", res.BestFitness)
	}
	if res.SolvedAtGen <= 0 || res.SolvedAtGen > res.Generations {
		t.Fatalf("SolvedAtGen=%d Generations=%d", res.SolvedAtGen, res.Generations)
	}
}

func TestParallelAsyncSolves(t *testing.T) {
	m := New(Config{
		Topology:  topology.Ring(4),
		Policy:    migration.Policy{Interval: 5, Count: 2, Sync: false, Buffer: 2},
		NewEngine: onemaxEngines(48, 25),
		Seed:      4,
	})
	res := m.RunParallel(core.MaxGenerations(300), engine.Control{})
	if !res.Solved {
		t.Fatalf("async-parallel failed: best=%v", res.BestFitness)
	}
	if res.Evaluations == 0 {
		t.Fatal("no evaluations recorded")
	}
}

func TestParallelSyncDeterministic(t *testing.T) {
	run := func() float64 {
		m := New(Config{
			Topology:  topology.BiRing(4),
			Policy:    migration.Policy{Interval: 3, Count: 1, Sync: true},
			NewEngine: onemaxEngines(40, 20),
			Seed:      11,
		})
		return m.RunParallel(core.MaxGenerations(30), engine.Control{}).BestFitness
	}
	if run() != run() {
		t.Fatal("sync-parallel not deterministic")
	}
}

func TestSequentialMatchesSyncParallel(t *testing.T) {
	// With the same seed and the same stop, lockstep-sequential and
	// barrier-parallel modes perform identical computations — here up to
	// the optimum, where both stop.
	mkModel := func() *Model {
		return New(Config{
			Topology:  topology.Ring(3),
			Policy:    migration.Policy{Interval: 4, Count: 1, Sync: true},
			NewEngine: onemaxEngines(48, 16),
			Seed:      13,
		})
	}
	stop := core.AnyOf{core.MaxGenerations(300), core.AtOptimum{Target: problems.OneMax{N: 48}}}
	seqRes := mkModel().RunSequential(stop, engine.Control{})
	parRes := mkModel().RunParallel(stop, engine.Control{})
	if !seqRes.Solved || seqRes.StopReason != core.ReasonTarget || seqRes.Generations != seqRes.SolvedAtGen {
		t.Fatalf("sequential run did not stop at the optimum: %+v", seqRes.RunStats)
	}
	if seqRes.BestFitness != parRes.BestFitness || seqRes.Evaluations != parRes.Evaluations ||
		seqRes.Generations != parRes.Generations || seqRes.StopReason != parRes.StopReason {
		t.Fatalf("sequential %+v != sync parallel %+v", seqRes.RunStats, parRes.RunStats)
	}
}

func TestIsolatedTopologyNeverMigrates(t *testing.T) {
	m := New(Config{
		Topology:  topology.Isolated(3),
		Policy:    migration.Policy{Interval: 2, Count: 1},
		NewEngine: onemaxEngines(24, 10),
		Seed:      5,
	})
	res := m.RunSequential(core.MaxGenerations(10), engine.Control{})
	if res.Migrations != 0 {
		t.Fatalf("isolated topology migrated %d times", res.Migrations)
	}
}

func TestZeroIntervalNeverMigrates(t *testing.T) {
	m := New(Config{
		Topology:  topology.Complete(3),
		Policy:    migration.Policy{Interval: 0},
		NewEngine: onemaxEngines(24, 10),
		Seed:      6,
	})
	res := m.RunSequential(core.MaxGenerations(10), engine.Control{})
	if res.Migrations != 0 {
		t.Fatalf("interval 0 migrated %d times", res.Migrations)
	}
}

func TestMigrationCountMatchesSchedule(t *testing.T) {
	// Ring(4): 4 links; interval 5 over 20 generations → 4 epochs × 4 links.
	m := New(Config{
		Topology:  topology.Ring(4),
		Policy:    migration.Policy{Interval: 5, Count: 1},
		NewEngine: onemaxEngines(24, 10),
		Seed:      8,
	})
	res := m.RunSequential(core.MaxGenerations(20), engine.Control{})
	if res.Migrations != 16 {
		t.Fatalf("migrations = %d, want 16", res.Migrations)
	}
}

func TestTracePunctuatedShape(t *testing.T) {
	m := New(Config{
		Topology:  topology.Ring(4),
		Policy:    migration.Policy{Interval: 10, Count: 2},
		NewEngine: onemaxEngines(64, 20),
		Seed:      9,
	})
	var trace []core.Status
	m.RunSequential(core.MaxGenerations(50), recordStatuses(&trace))
	if len(trace) != 51 {
		t.Fatalf("trace length %d", len(trace))
	}
	for i := 1; i < len(trace); i++ {
		if trace[i].BestFitness < trace[i-1].BestFitness {
			t.Fatal("global best regressed (elitist demes)")
		}
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{Policy: migration.Policy{}, NewEngine: onemaxEngines(8, 4)}, // no topology
		{Topology: topology.Ring(2)},                                 // no engine factory
	}
	for i, cfg := range cases {
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

func TestRunSequentialPanicsWithoutStop(t *testing.T) {
	m := New(Config{Topology: topology.Ring(2), NewEngine: onemaxEngines(8, 4), Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	m.RunSequential(nil, engine.Control{})
}

func TestMixedEnginesPerDeme(t *testing.T) {
	// Alba & Troya 2002 mixed evolution schemes across islands; the model
	// must support heterogeneous demes.
	m := New(Config{
		Topology: topology.Ring(4),
		Policy:   migration.Policy{Interval: 5, Count: 1},
		NewEngine: func(deme int, r *rng.Source) ga.Engine {
			cfg := ga.Config{
				Problem:   problems.OneMax{N: 32},
				PopSize:   16,
				Crossover: operators.Uniform{},
				Mutator:   operators.BitFlip{},
				RNG:       r,
			}
			if deme%2 == 0 {
				return ga.NewGenerational(cfg)
			}
			return ga.NewSteadyState(cfg, true)
		},
		Seed: 10,
	})
	res := m.RunSequential(core.AnyOf{
		core.MaxGenerations(200),
		core.TargetFitness{Target: 32, Dir: core.Maximize},
	}, engine.Control{})
	if !res.Solved {
		t.Fatalf("mixed-engine island failed: %v", res.BestFitness)
	}
}

func TestDemesAccessor(t *testing.T) {
	m := New(Config{Topology: topology.Ring(5), NewEngine: onemaxEngines(8, 4), Seed: 1})
	if len(m.Engines()) != 5 {
		t.Fatal("deme accessor wrong")
	}
}

func TestDynamicTopologyRewires(t *testing.T) {
	dyn := topology.NewDynamic(func(seed uint64) topology.Topology {
		return topology.RandomRegular(6, 2, seed)
	}, 1)
	before := make([][]int, 6)
	for i := range before {
		before[i] = append([]int(nil), dyn.Neighbors(i)...)
	}
	m := New(Config{
		Topology:    dyn,
		Policy:      migration.Policy{Interval: 2, Count: 1},
		NewEngine:   onemaxEngines(256, 10),
		RewireEvery: 1,
		Seed:        14,
	})
	m.RunSequential(core.MaxGenerations(10), engine.Control{})
	changed := false
	for i := range before {
		after := dyn.Neighbors(i)
		for j := range before[i] {
			if j < len(after) && before[i][j] != after[j] {
				changed = true
			}
		}
	}
	if !changed {
		t.Fatal("dynamic topology never rewired during the run")
	}
}

func TestStaticTopologyUnaffectedByRewireEvery(t *testing.T) {
	m := New(Config{
		Topology:    topology.Ring(3),
		Policy:      migration.Policy{Interval: 2, Count: 1},
		NewEngine:   onemaxEngines(32, 8),
		RewireEvery: 1,
		Seed:        15,
	})
	res := m.RunSequential(core.MaxGenerations(8), engine.Control{})
	if res.Evaluations == 0 {
		t.Fatal("run failed with RewireEvery on a static topology")
	}
}
