package island

import (
	"context"
	"testing"
	"time"

	"pga/internal/core"
	"pga/internal/engine"
	"pga/internal/migration"
	"pga/internal/supervise"
	"pga/internal/topology"
	"pga/internal/transport"
)

// TestSupervisedRunKeepsCallerObservers: a supervised barriered run
// checkpoints through an observer of its own. The caller's observers are
// kept beside it — they used to be replaced — and run after it: by the
// time the caller hears a checkpoint generation, the checkpoint exists.
func TestSupervisedRunKeepsCallerObservers(t *testing.T) {
	res := &supervise.Config{CheckpointEvery: 4, MaxRestarts: 3, Backoff: time.Millisecond}
	m := New(supervisedConfig(true, res, supervise.NewFaultPlan().PanicAt(1, 6)))
	var gens, restarts, done int
	obs := engine.Funcs{
		Generation: func(s core.Status) {
			if s.Generation != gens {
				t.Fatalf("OnGeneration %d at call %d", s.Generation, gens)
			}
			gens++
			if s.Generation%4 == 0 && m.sup.ResumeGen(0) != s.Generation {
				t.Errorf("generation %d: deme 0's checkpoint is at %d — the caller's observer ran before the runtime's",
					s.Generation, m.sup.ResumeGen(0))
			}
		},
		Restart: func(_ int, n int64) { restarts += int(n) },
		Done:    func(*core.RunStats) { done++ },
	}
	r := m.RunParallel(10, engine.Control{Observers: []engine.Observer{obs}})
	if r.Generations != 10 || gens != 11 || done != 1 {
		t.Errorf("%d generations: OnGeneration fired %d times, OnDone %d", r.Generations, gens, done)
	}
	if restarts != 1 || r.Restarts != 1 {
		t.Errorf("OnRestart totalled %d, result says %d, want 1", restarts, r.Restarts)
	}
}

// TestFreeRunningControl: the free-running discipline takes the caller's
// context and gives its observers OnDone only, once, with the assembled
// stats; a cancelled run has joined its demes and says "cancelled", a
// solved one still says "target reached".
func TestFreeRunningControl(t *testing.T) {
	cfg := Config{
		Topology:  topology.Ring(4),
		Policy:    migration.Policy{Interval: 5, Count: 2, Buffer: 2},
		NewEngine: onemaxEngines(48, 25),
		Seed:      4,
	}
	var heard []core.RunStats
	obs := engine.Funcs{
		Generation: func(s core.Status) { t.Errorf("run-level OnGeneration(%d) from a free run", s.Generation) },
		Done:       func(st *core.RunStats) { heard = append(heard, *st) },
	}
	ctl := engine.Control{Context: context.Background(), Observers: []engine.Observer{obs}}

	solved := New(cfg).RunParallel(300, ctl)
	if !solved.Solved || solved.StopReason != "target reached" || solved.SolvedAtGen <= 0 {
		t.Fatalf("uncancelled run: %+v", solved.RunStats)
	}

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	ctl.Context = dead
	cut := New(cfg).RunParallel(300, ctl)
	if cut.StopReason != "cancelled" || cut.Generations != 0 || cut.Solved {
		t.Fatalf("run under a dead context: %+v", cut.RunStats)
	}
	if len(heard) != 2 || heard[0].StopReason != "target reached" || heard[1].StopReason != "cancelled" ||
		heard[0].Evaluations != solved.Evaluations {
		t.Errorf("OnDone heard %+v", heard)
	}
}

// TestRunWireCancelled: a wire island stops within a generation of its
// context ending, with the accounting of the generations it completed;
// the endpoint is still the caller's, open, to close and read.
func TestRunWireCancelled(t *testing.T) {
	const g = 7
	eps := transport.NewLoopback(2, 4)
	er, mr := WireStreams(3, 2, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res := RunWire(WireConfig{
		Self: 0, Topology: topology.Ring(2), Endpoint: eps[0],
		Policy: migration.Policy{Interval: 3, Count: 1},
		Engine: onemaxEngines(256, 10)(0, er), MigRNG: mr, MaxGens: 600,
		Context: ctx, Trace: true,
		Observers: []engine.Observer{engine.Funcs{Generation: func(s core.Status) {
			if s.Generation == g {
				cancel()
			}
		}}},
	})
	if res.Generations != g || res.StopReason != "cancelled" || len(res.Trace) != g+1 {
		t.Fatalf("halted at (%d, %q) with %d trace points, want (%d, cancelled, %d)",
			res.Generations, res.StopReason, len(res.Trace), g, g+1)
	}
	if res.Migrations != 2 || res.Net.Sent != 2 {
		t.Errorf("%d generations at interval 3 sent %d batches (net %+v), want 2", g, res.Migrations, res.Net)
	}
	if !eps[0].Send(1, nil) {
		t.Error("RunWire closed the caller's endpoint")
	}
}
