package supervise

import (
	"net"
	"slices"
	"sort"
	"testing"
	"time"

	"pga/internal/core"
	"pga/internal/ga"
	"pga/internal/masterslave"
	"pga/internal/operators"
	"pga/internal/problems"
	"pga/internal/rng"
	"pga/internal/topology"
	"pga/internal/transport"
)

// testFactory returns a small OneMax engine factory.
func testFactory(bits, pop int) func(int, *rng.Source) ga.Engine {
	return func(deme int, r *rng.Source) ga.Engine {
		return ga.NewGenerational(ga.Config{
			Problem:   problems.OneMax{N: bits},
			PopSize:   pop,
			Crossover: operators.Uniform{},
			Mutator:   operators.BitFlip{},
			RNG:       r,
		})
	}
}

// newTestSupervisor builds a supervisor over a ring with attached deme
// streams and engines, returning both.
func newTestSupervisor(t testing.TB, cfg Config, plan *FaultPlan, demes int) (*Supervisor, []ga.Engine) {
	t.Helper()
	factory := testFactory(16, 8)
	master := rng.New(99)
	s := New(cfg, plan, topology.Ring(demes), factory, master.Split())
	engines := make([]ga.Engine, demes)
	for i := 0; i < demes; i++ {
		src := master.Split()
		s.Attach(i, src)
		engines[i] = factory(i, src)
	}
	return s, engines
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.CheckpointEvery != 5 || c.MaxRestarts != 3 || c.Backoff != time.Millisecond || c.MaxSendRetries != 3 {
		t.Fatalf("unexpected defaults: %+v", c)
	}
	// Explicit values survive.
	c = Config{CheckpointEvery: 2, MaxRestarts: 7}.WithDefaults()
	if c.CheckpointEvery != 2 || c.MaxRestarts != 7 {
		t.Fatalf("explicit values overridden: %+v", c)
	}
}

func TestFaultPlanTakeConsumesBudget(t *testing.T) {
	p := NewFaultPlan().PanicTimes(2, 5, 2)
	if f := p.take(2, 4); f != nil {
		t.Fatal("fault fired before its generation")
	}
	if f := p.take(1, 5); f != nil {
		t.Fatal("fault fired for the wrong deme")
	}
	if f := p.take(2, 5); f == nil || f.Kind != FaultPanic {
		t.Fatal("first trigger missing")
	}
	// Replays at or after Gen keep firing while the budget lasts.
	if f := p.take(2, 7); f == nil {
		t.Fatal("second trigger missing")
	}
	if f := p.take(2, 8); f != nil {
		t.Fatal("fault fired beyond its Times budget")
	}
}

func TestFaultPlanNilSafe(t *testing.T) {
	var p *FaultPlan
	if p.take(0, 1) != nil {
		t.Fatal("nil plan has faults")
	}
	p.apply(0, 1) // must not panic
}

func TestRouterHealsRingAroundDeadDeme(t *testing.T) {
	r := NewRouter(topology.Ring(4)) // 0→1→2→3→0
	r.MarkDead(2)
	if got := r.Neighbors(1); len(got) != 1 || got[0] != 3 {
		t.Fatalf("deme 1 should route around dead 2 to 3, got %v", got)
	}
	if got := r.Neighbors(2); len(got) != 0 {
		t.Fatalf("dead deme still has neighbours: %v", got)
	}
	if r.Alive(2) || !r.Alive(1) || r.AliveCount() != 3 {
		t.Fatal("liveness bookkeeping wrong")
	}
	if d := r.Dead(); len(d) != 1 || d[0] != 2 {
		t.Fatalf("Dead() = %v", d)
	}
}

func TestRouterHealsThroughDeadRegions(t *testing.T) {
	// Ring of 5 with two adjacent deaths: 0→1→2→3→4→0, kill 1 and 2;
	// 0 must reach 3 through the dead region.
	r := NewRouter(topology.Ring(5))
	r.MarkDead(1)
	r.MarkDead(2)
	if got := r.Neighbors(0); len(got) != 1 || got[0] != 3 {
		t.Fatalf("deme 0 should heal through 1,2 to 3, got %v", got)
	}
}

func TestRouterStarHubDeath(t *testing.T) {
	// Star(4): hub 0 ↔ leaves 1..3. Killing the hub must reconnect the
	// leaves to each other (each leaf's only link was through 0).
	r := NewRouter(topology.Star(4))
	r.MarkDead(0)
	for leaf := 1; leaf <= 3; leaf++ {
		got := append([]int(nil), r.Neighbors(leaf)...)
		sort.Ints(got)
		want := []int{}
		for j := 1; j <= 3; j++ {
			if j != leaf {
				want = append(want, j)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("leaf %d healed neighbours %v, want %v", leaf, got, want)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("leaf %d healed neighbours %v, want %v", leaf, got, want)
			}
		}
	}
}

func TestRouterImplementsTopology(t *testing.T) {
	var _ topology.Topology = NewRouter(topology.Ring(3))
	r := NewRouter(topology.Ring(3))
	if r.Size() != 3 || r.Name() != "routed:ring" {
		t.Fatalf("Size/Name wrong: %d %q", r.Size(), r.Name())
	}
}

func TestRunStepRecoversPanic(t *testing.T) {
	plan := NewFaultPlan().PanicAt(0, 1)
	s, engines := newTestSupervisor(t, Config{Backoff: time.Microsecond}, plan, 2)
	out := s.RunStep(0, 1, engines[0])
	if out.Status != StepPanicked || out.Err == nil {
		t.Fatalf("panic not recovered: %+v", out)
	}
	// Unscripted demes step normally.
	if out := s.RunStep(1, 1, engines[1]); out.Status != StepOK {
		t.Fatalf("healthy step failed: %+v", out)
	}
}

func TestRunStepTimesOutOnHang(t *testing.T) {
	plan := NewFaultPlan().HangAt(0, 1, 200*time.Millisecond)
	s, engines := newTestSupervisor(t, Config{Heartbeat: 10 * time.Millisecond, Backoff: time.Microsecond}, plan, 1)
	startAt := time.Now()
	out := s.RunStep(0, 1, engines[0])
	if out.Status != StepTimedOut {
		t.Fatalf("hang not detected: %+v", out)
	}
	if time.Since(startAt) > 150*time.Millisecond {
		t.Fatal("RunStep waited for the hang instead of abandoning it")
	}
}

func TestRestartRestoresCheckpointOnFreshStream(t *testing.T) {
	s, engines := newTestSupervisor(t, Config{MaxRestarts: 2, Backoff: time.Microsecond}, nil, 1)
	e := engines[0]
	for i := 0; i < 3; i++ {
		e.Step()
	}
	wantBest := e.Population().BestFitness(problems.OneMax{N: 16}.Direction())
	if err := s.Checkpoint(0, e.Population(), 3, e.Evaluations()); err != nil {
		t.Fatal(err)
	}
	e.Step() // work that will be lost

	eng, frozen, ok := s.Restart(0, 4, FailurePanic, "boom")
	if !ok || eng == nil || frozen != nil {
		t.Fatalf("restart failed: ok=%v eng=%v frozen=%v", ok, eng, frozen)
	}
	pop := eng.Population()
	if pop.Len() != 8 {
		t.Fatalf("restored population size %d", pop.Len())
	}
	for _, ind := range pop.Members {
		if !ind.Evaluated {
			t.Fatal("restored member not evaluated")
		}
	}
	if got := pop.BestFitness(problems.OneMax{N: 16}.Direction()); got != wantBest {
		t.Fatalf("restored best %v != checkpointed best %v", got, wantBest)
	}
	if s.Restarts() != 1 || s.PanicsRecovered() != 1 {
		t.Fatalf("counters: restarts=%d panics=%d", s.Restarts(), s.PanicsRecovered())
	}
	if s.ResumeGen(0) != 3 {
		t.Fatalf("ResumeGen = %d", s.ResumeGen(0))
	}
	fails := s.Failures()
	if len(fails) != 1 || !fails[0].Restarted || fails[0].Kind != FailurePanic || fails[0].Gen != 4 {
		t.Fatalf("failure log wrong: %+v", fails)
	}
}

func TestRestartBudgetExhaustionKillsDeme(t *testing.T) {
	s, engines := newTestSupervisor(t, Config{MaxRestarts: 1, Backoff: time.Microsecond}, nil, 2)
	e := engines[0]
	if err := s.Checkpoint(0, e.Population(), 0, e.Evaluations()); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Restart(0, 1, FailurePanic, "first"); !ok {
		t.Fatal("first restart should succeed")
	}
	eng, frozen, ok := s.Restart(0, 2, FailureTimeout, nil)
	if ok || eng != nil {
		t.Fatal("second restart should exhaust the budget")
	}
	if frozen == nil || frozen.Len() != 8 {
		t.Fatalf("dead deme should freeze its checkpoint, got %v", frozen)
	}
	if s.Router().Alive(0) {
		t.Fatal("dead deme not marked in router")
	}
	if s.HeartbeatTimeouts() != 1 {
		t.Fatalf("timeouts=%d", s.HeartbeatTimeouts())
	}
	fails := s.Failures()
	if len(fails) != 2 || fails[1].Restarted {
		t.Fatalf("failure log wrong: %+v", fails)
	}
	// Ring(2): deme 1's healed neighbours exclude the dead deme 0; with
	// only one live deme no links remain.
	if got := s.Router().Neighbors(1); len(got) != 0 {
		t.Fatalf("lone survivor should have no neighbours, got %v", got)
	}
	// A failure reported for a deme already dead changes nothing and
	// leaves the supervisor usable.
	withinDeadline(t, 5*time.Second, func() {
		if eng, frozen, ok := s.Restart(0, 3, FailurePanic, "late"); ok || eng != nil || frozen != nil {
			t.Errorf("restart of a dead deme = (%v, %v, %v), want (nil, nil, false)", eng, frozen, ok)
		}
		if n := len(s.Failures()); n != 2 {
			t.Errorf("a late failure of a dead deme was logged: %d failures", n)
		}
	})
}

func TestRetiredEvaluationsAccumulate(t *testing.T) {
	s, engines := newTestSupervisor(t, Config{MaxRestarts: 3, Backoff: time.Microsecond}, nil, 1)
	e := engines[0]
	evals := e.Evaluations()
	if err := s.Checkpoint(0, e.Population(), 0, evals); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Restart(0, 1, FailurePanic, "x"); !ok {
		t.Fatal("restart failed")
	}
	if s.RetiredEvaluations() != evals {
		t.Fatalf("retired %d, want %d", s.RetiredEvaluations(), evals)
	}
}

func TestCheckpointDue(t *testing.T) {
	s, _ := newTestSupervisor(t, Config{CheckpointEvery: 4}, nil, 1)
	for _, tc := range []struct {
		gen  int
		want bool
	}{{1, false}, {4, true}, {6, false}, {8, true}} {
		if got := s.CheckpointDue(tc.gen); got != tc.want {
			t.Fatalf("CheckpointDue(%d) = %v", tc.gen, got)
		}
	}
}

func TestKindStrings(t *testing.T) {
	if FaultPanic.String() != "panic" || FaultHang.String() != "hang" {
		t.Fatal("FaultKind strings wrong")
	}
	if FailurePanic.String() != "panic" || FailureTimeout.String() != "timeout" {
		t.Fatal("FailureKind strings wrong")
	}
}

func TestRouterMarkAliveRestoresBaseRing(t *testing.T) {
	base := topology.Ring(5)
	r := NewRouter(base)
	r.MarkDead(2)
	r.MarkAlive(2)
	same := func() {
		t.Helper()
		for i := 0; i < base.Size(); i++ {
			if got, want := r.Neighbors(i), base.Neighbors(i); !slices.Equal(got, want) {
				t.Fatalf("deme %d: neighbours %v after revival, base ring has %v", i, got, want)
			}
		}
		if r.AliveCount() != base.Size() || len(r.Dead()) != 0 {
			t.Fatalf("liveness after revival: %d alive, dead %v", r.AliveCount(), r.Dead())
		}
	}
	same()
	r.MarkAlive(2) // already alive: a no-op
	same()
}

func TestRouterRefreshFollowsRewiredBase(t *testing.T) {
	dyn := topology.NewDynamic(func(seed uint64) topology.Topology { return topology.RandomRegular(8, 3, seed) }, 5)
	r := NewRouter(dyn)
	dead := []int{1, 6}
	for _, d := range dead {
		r.MarkDead(d)
	}
	before := r.Neighbors(0)
	dyn.Rewire()
	r.Refresh()
	fresh := NewRouter(dyn)
	for _, d := range dead {
		fresh.MarkDead(d)
	}
	for i := 0; i < dyn.Size(); i++ {
		if got, want := r.Neighbors(i), fresh.Neighbors(i); !slices.Equal(got, want) {
			t.Fatalf("deme %d: refreshed neighbours %v, a fresh router over the rewired graph has %v", i, got, want)
		}
	}
	if slices.Equal(r.Neighbors(0), before) {
		t.Fatal("the rewire left deme 0's neighbours unchanged; pick a seed that moves them")
	}
}

// withinDeadline runs f on its own goroutine and fails the test if f has
// not returned within d: a mutex left locked on some exit path blocks
// the next call forever. f reports with t.Error, never t.Fatal.
func withinDeadline(t *testing.T, d time.Duration, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("still blocked after %v: a lock is held past an early return", d)
	}
}

// badGenome is a genome the checkpoint codec refuses.
type badGenome struct{}

func (badGenome) Clone() core.Genome   { return badGenome{} }
func (badGenome) CopyFrom(core.Genome) {}
func (badGenome) Len() int             { return 1 }
func (badGenome) String() string       { return "bad" }

// TestLocksReleasedOnEveryExit takes every exit of each method that locks
// one of the module's five mutexes (FaultPlan, Supervisor, Router, Farm,
// TCP) — error returns, early returns and panics the
// method recovers from included — and then calls the type's locking
// methods again, under a deadline. A path that returns with the mutex
// still held turns the next call into a hang, and the deadline into a
// failure.
func TestLocksReleasedOnEveryExit(t *testing.T) {
	const deadline = 5 * time.Second
	t.Run("FaultPlan", func(t *testing.T) {
		p := NewFaultPlan().PanicAt(0, 2)
		withinDeadline(t, deadline, func() {
			for _, c := range []struct {
				deme, gen int
				hit       bool
			}{{1, 5, false}, {0, 1, false}, {0, 2, true}, {0, 2, false}} {
				if got := p.take(c.deme, c.gen) != nil; got != c.hit {
					t.Errorf("take(%d, %d) hit = %v, want %v", c.deme, c.gen, got, c.hit)
				}
			}
			p.HangAt(1, 1, 0)
			if p.take(1, 1) == nil {
				t.Error("a fault added after the early returns was not taken")
			}
		})
	})
	t.Run("Supervisor", func(t *testing.T) {
		plan := NewFaultPlan().PanicAt(2, 1)
		s, engines := newTestSupervisor(t, Config{MaxRestarts: 1, Backoff: time.Microsecond}, plan, 3)
		withinDeadline(t, deadline, func() {
			if g := s.ResumeGen(0); g != 0 { // no checkpoint yet: early return
				t.Errorf("ResumeGen before any checkpoint = %d", g)
			}
			bad := &core.Population{Members: []*core.Individual{{Genome: badGenome{}}}}
			if err := s.Checkpoint(0, bad, 1, 0); err == nil {
				t.Error("Checkpoint of an unencodable population succeeded")
			}
			if _, _, ok := s.Restart(0, 1, FailurePanic, "no checkpoint"); ok { // dies
				t.Error("a deme with no checkpoint was restarted")
			}
			if _, _, ok := s.Restart(0, 2, FailurePanic, "already dead"); ok {
				t.Error("a dead deme was restarted")
			}
			e := engines[1]
			if err := s.Checkpoint(1, e.Population(), 4, e.Evaluations()); err != nil {
				t.Error(err)
			}
			if _, _, ok := s.Restart(1, 5, FailureTimeout, nil); !ok {
				t.Error("a checkpointed deme was not restarted")
			}
			s.Attach(2, rng.New(1))
			if g := s.ResumeGen(1); g != 4 {
				t.Errorf("ResumeGen after a checkpoint at 4 = %d", g)
			}
			if n := len(s.Failures()); n != 2 {
				t.Errorf("%d failures logged, want 2", n)
			}
			// A step that panics is recovered inside RunStep, which takes
			// the fault plan's lock on the way in.
			if out := s.RunStep(2, 1, engines[2]); out.Status != StepPanicked {
				t.Errorf("RunStep under a scripted panic = %v", out.Status)
			}
			if plan.take(2, 1) != nil {
				t.Error("the scripted panic was not consumed")
			}
		})
	})
	t.Run("Router", func(t *testing.T) {
		r := NewRouter(topology.Ring(4))
		withinDeadline(t, deadline, func() {
			r.MarkDead(1)
			r.MarkDead(1)  // already dead: early return
			r.MarkAlive(2) // already alive: early return
			r.MarkAlive(1)
			r.Refresh()
			if !r.Alive(1) || r.AliveCount() != 4 || len(r.Dead()) != 0 || len(r.Neighbors(0)) != 1 {
				t.Error("router state wrong after the early returns")
			}
		})
	})
	t.Run("Farm", func(t *testing.T) {
		// Worker 0 never fails; worker 1 fails every task and dies after
		// two, so its remaining slice is reported failed unattempted.
		f := masterslave.NewFarm(1, []masterslave.WorkerSpec{{Speed: 1}, {Speed: 1, FailProb: 1, MaxFailures: 2}})
		dead := masterslave.NewFarm(2, []masterslave.WorkerSpec{{Speed: 1, FailProb: 1, MaxFailures: 1}})
		p := problems.OneMax{N: 16}
		withinDeadline(t, deadline, func() {
			for _, farm := range []*masterslave.Farm{f, dead} {
				for round := 0; round < 2; round++ {
					pop := core.RandomPopulation(p, 12, rng.New(uint64(round)))
					for _, ind := range pop.Members {
						ind.Evaluated = false
					}
					farm.EvaluateAll(p, pop)
					farm.Stats()
					farm.Makespan(1)
				}
			}
			if st := dead.Stats(); st.DeadWorkers != 1 {
				t.Errorf("dead farm stats %+v", st)
			}
		})
	})
	t.Run("TCP", func(t *testing.T) {
		ep, err := transport.NewTCP(transport.TCPConfig{Listen: "127.0.0.1:0", Peers: map[int]string{1: "127.0.0.1:1"}, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		withinDeadline(t, deadline, func() {
			// An inbound connection is tracked, then untracked when its
			// reader sees EOF.
			if conn, err := net.Dial("tcp", ep.Addr().String()); err == nil {
				conn.Close()
			}
			ep.Close()
			ep.Close() // already closed
			if ep.Send(1, nil) {
				t.Error("a closed endpoint accepted a send")
			}
		})
	})
}
