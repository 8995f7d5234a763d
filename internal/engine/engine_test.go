package engine

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"pga/internal/core"
)

// fakeGenome is a one-gene genome for exercising the loop.
type fakeGenome struct{ v int }

func (g *fakeGenome) Clone() core.Genome { c := *g; return &c }
func (g *fakeGenome) Len() int           { return 1 }
func (g *fakeGenome) String() string     { return fmt.Sprintf("fg(%d)", g.v) }

// script describes what one Step call reports.
type script struct {
	info    StepInfo
	fitness float64 // best fitness after the step
}

// fakeStepper replays a fixed script: fitness starts at start and follows
// the per-step values; evaluations advance by evalsPer per step.
type fakeStepper struct {
	steps    []script
	start    float64
	evalsPer int64

	calls  []int // gens passed to Step, for assertion
	pos    int
	evals  int64
	best   *core.Individual
	noBest bool
	mean   float64
}

func (f *fakeStepper) Step(gen int) StepInfo {
	f.calls = append(f.calls, gen)
	s := f.steps[f.pos]
	f.pos++
	f.evals += f.evalsPer
	if f.best == nil {
		f.best = core.NewIndividual(&fakeGenome{})
		f.best.Evaluated = true
	}
	f.best.Fitness = s.fitness
	f.best.Genome.(*fakeGenome).v = f.pos
	return s.info
}

func (f *fakeStepper) Best() (*core.Individual, float64) {
	if f.noBest {
		return nil, core.Maximize.Worst()
	}
	if f.best == nil {
		return nil, f.start
	}
	return f.best, f.best.Fitness
}

func (f *fakeStepper) Evaluations() int64        { return f.evals }
func (f *fakeStepper) Direction() core.Direction { return core.Maximize }
func (f *fakeStepper) MeanFitness() float64      { return f.mean }

// target solves at fitness >= at.
type target struct{ at float64 }

func (t target) Optimum() float64      { return t.at }
func (t target) Solved(f float64) bool { return f >= t.at }

// recorder logs every hook invocation as one string, in order.
type recorder struct{ events []string }

func (r *recorder) OnGeneration(s core.Status) {
	r.events = append(r.events, fmt.Sprintf("gen(%d,%g,%v)", s.Generation, s.BestFitness, s.Improved))
}
func (r *recorder) OnMigration(gen int, batches int64) {
	r.events = append(r.events, fmt.Sprintf("mig(%d,%d)", gen, batches))
}
func (r *recorder) OnRestart(gen int, restarts int64) {
	r.events = append(r.events, fmt.Sprintf("restart(%d,%d)", gen, restarts))
}
func (r *recorder) OnDone(stats *core.RunStats) {
	r.events = append(r.events, fmt.Sprintf("done(%d)", stats.Generations))
}

func flat(fits ...float64) []script {
	out := make([]script, len(fits))
	for i, f := range fits {
		out[i] = script{fitness: f}
	}
	return out
}

func TestLoopRequiresStop(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Loop accepted nil Stop")
		}
	}()
	Loop(&fakeStepper{}, Options{}, &core.RunStats{})
}

func TestLoopAccounting(t *testing.T) {
	s := &fakeStepper{steps: flat(1, 3, 2, 5), start: 0, evalsPer: 10}
	var out core.RunStats
	Loop(s, Options{Stop: core.MaxGenerations(4)}, &out)
	if out.Generations != 4 {
		t.Fatalf("Generations = %d, want 4", out.Generations)
	}
	if out.Evaluations != 40 {
		t.Fatalf("Evaluations = %d, want 40", out.Evaluations)
	}
	if out.BestFitness != 5 {
		t.Fatalf("BestFitness = %v, want 5 (monotone best)", out.BestFitness)
	}
	if out.Best == nil || out.Best.Fitness != 5 {
		t.Fatalf("Best = %v, want tracked individual at fitness 5", out.Best)
	}
	if out.StopReason != "max generations" {
		t.Fatalf("StopReason = %q", out.StopReason)
	}
	if want := []int{1, 2, 3, 4}; !reflect.DeepEqual(s.calls, want) {
		t.Fatalf("Step gens = %v, want %v", s.calls, want)
	}
}

func TestLoopBestIsMonotoneAndDetached(t *testing.T) {
	// Fitness dips after the peak; the tracker must hold the peak and not
	// alias the stepper's live individual.
	s := &fakeStepper{steps: flat(4, 9, 2), evalsPer: 1}
	var out core.RunStats
	Loop(s, Options{Stop: core.MaxGenerations(3)}, &out)
	if out.BestFitness != 9 {
		t.Fatalf("BestFitness = %v, want 9", out.BestFitness)
	}
	if out.Best == s.best {
		t.Fatal("Best aliases the stepper's live individual")
	}
	if out.Best.Genome.(*fakeGenome).v != 2 {
		t.Fatalf("Best genome snapshot = %d, want the gen-2 copy", out.Best.Genome.(*fakeGenome).v)
	}
}

func TestLoopHaltOnSolve(t *testing.T) {
	s := &fakeStepper{steps: flat(1, 7, 8, 9), evalsPer: 5}
	var out core.RunStats
	Loop(s, Options{
		Stop: core.MaxGenerations(4), Target: target{at: 7}, HaltOnSolve: true,
	}, &out)
	if !out.Solved || out.SolvedAtGen != 2 || out.SolvedAtEval != 10 {
		t.Fatalf("solve record = {%v %d %d}, want {true 2 10}", out.Solved, out.SolvedAtGen, out.SolvedAtEval)
	}
	if out.Generations != 2 || out.StopReason != "target reached" {
		t.Fatalf("halt = (%d, %q), want (2, target reached)", out.Generations, out.StopReason)
	}
}

func TestLoopInitialSolve(t *testing.T) {
	s := &fakeStepper{steps: flat(1), start: 10}
	var out core.RunStats
	Loop(s, Options{
		Stop: core.MaxGenerations(5), Target: target{at: 10},
		InitialSolve: true, HaltOnSolve: true,
	}, &out)
	if !out.Solved || out.SolvedAtGen != 0 {
		t.Fatalf("initial population not detected as solved: %+v", out)
	}
	if out.Generations != 0 || len(s.calls) != 0 {
		t.Fatalf("loop stepped a solved initial population: gens=%d steps=%v", out.Generations, s.calls)
	}
}

func TestLoopModelHalt(t *testing.T) {
	s := &fakeStepper{steps: []script{{fitness: 1}, {fitness: 2, info: StepInfo{Halt: true}}, {fitness: 3}}}
	var out core.RunStats
	Loop(s, Options{Stop: core.MaxGenerations(100)}, &out)
	if out.Generations != 2 || out.StopReason != "model halt" {
		t.Fatalf("model halt = (%d, %q), want (2, model halt)", out.Generations, out.StopReason)
	}
}

func TestLoopRewind(t *testing.T) {
	// Step 2 rewinds to generation 1: the loop must re-run generation 2
	// and report no OnGeneration for the rewound attempt.
	s := &fakeStepper{steps: []script{
		{fitness: 1},
		{info: StepInfo{Rewound: true, ResumeAt: 1, Restarts: 1}},
		{fitness: 2},
		{fitness: 3},
	}}
	rec := &recorder{}
	var out core.RunStats
	totals := Loop(s, Options{Stop: core.MaxGenerations(3), Observers: []Observer{rec}}, &out)
	if out.Generations != 3 {
		t.Fatalf("Generations = %d, want 3", out.Generations)
	}
	if totals.Restarts != 1 {
		t.Fatalf("Totals.Restarts = %d, want 1", totals.Restarts)
	}
	// Step is re-invoked for generation 2 after the rewind.
	if want := []int{1, 2, 2, 3}; !reflect.DeepEqual(s.calls, want) {
		t.Fatalf("Step gens = %v, want %v", s.calls, want)
	}
	want := []string{
		"gen(0,0,true)",
		"gen(1,1,true)",
		"restart(2,1)", // the rewound attempt fires OnRestart but no OnGeneration
		"gen(2,2,true)",
		"gen(3,3,true)",
		"done(3)",
	}
	if !reflect.DeepEqual(rec.events, want) {
		t.Fatalf("events = %v, want %v", rec.events, want)
	}
}

func TestLoopObserverOrderingAndDeterminism(t *testing.T) {
	run := func() []string {
		s := &fakeStepper{steps: []script{
			{fitness: 1},
			{fitness: 2, info: StepInfo{Migrations: 3, Restarts: 1}},
			{fitness: 2},
		}}
		rec := &recorder{}
		var out core.RunStats
		Loop(s, Options{Stop: core.MaxGenerations(3), Observers: []Observer{rec}}, &out)
		return rec.events
	}
	first := run()
	want := []string{
		"gen(0,0,true)",
		"gen(1,1,true)",
		"restart(2,1)", // per-generation order: OnRestart, OnMigration, OnGeneration
		"mig(2,3)",
		"gen(2,2,true)",
		"gen(3,2,false)",
		"done(3)",
	}
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("events = %v, want %v", first, want)
	}
	for i := 0; i < 3; i++ {
		if again := run(); !reflect.DeepEqual(again, first) {
			t.Fatalf("run %d diverged: %v vs %v", i, again, first)
		}
	}
}

func TestLoopObserverSliceOrder(t *testing.T) {
	a, b := &recorder{}, &recorder{}
	order := []string{}
	probe := Funcs{Generation: func(core.Status) { order = append(order, "probe") }}
	s := &fakeStepper{steps: flat(1)}
	var out core.RunStats
	Loop(s, Options{Stop: core.MaxGenerations(1), Observers: []Observer{a, probe, b}}, &out)
	// a fires before probe before b at every hook; spot-check counts line up.
	if len(a.events) != len(b.events) || len(a.events) == 0 {
		t.Fatalf("observer fan-out uneven: %d vs %d", len(a.events), len(b.events))
	}
	if len(order) != 2 { // gen 0 + gen 1
		t.Fatalf("middle observer fired %d times, want 2", len(order))
	}
}

func TestLoopTrace(t *testing.T) {
	s := &fakeStepper{steps: flat(1, 2), start: 0.5, evalsPer: 4, mean: 0.25}
	var out core.RunStats
	Loop(s, Options{Stop: core.MaxGenerations(2), Trace: true, InitialTracePoint: true}, &out)
	if len(out.Trace) != 3 {
		t.Fatalf("trace length = %d, want 3 (gen 0..2)", len(out.Trace))
	}
	tp := out.Trace[0]
	if tp.Generation != 0 || tp.Best != 0.5 || tp.Mean != 0.25 {
		t.Fatalf("gen-0 trace point = %+v", tp)
	}
	if out.Trace[2].Generation != 2 || out.Trace[2].Evaluations != 8 {
		t.Fatalf("gen-2 trace point = %+v", out.Trace[2])
	}

	// Without InitialTracePoint the gen-0 sample is omitted.
	s2 := &fakeStepper{steps: flat(1, 2), evalsPer: 4}
	var out2 core.RunStats
	Loop(s2, Options{Stop: core.MaxGenerations(2), Trace: true}, &out2)
	if len(out2.Trace) != 2 || out2.Trace[0].Generation != 1 {
		t.Fatalf("trace without initial point = %+v", out2.Trace)
	}
}

func TestLoopSkipBest(t *testing.T) {
	s := &fakeStepper{steps: flat(5, 6)}
	var out core.RunStats
	Loop(s, Options{Stop: core.MaxGenerations(2), SkipBest: true}, &out)
	if out.Best != nil {
		t.Fatalf("SkipBest still tracked an individual: %v", out.Best)
	}
	if out.BestFitness != core.Maximize.Worst() {
		t.Fatalf("SkipBest BestFitness = %v, want Worst()", out.BestFitness)
	}
}

func TestLoopAnyOfFiredReason(t *testing.T) {
	s := &fakeStepper{steps: flat(1, 2, 3), evalsPer: 100}
	var out core.RunStats
	Loop(s, Options{Stop: core.AnyOf{core.MaxGenerations(50), core.MaxEvaluations(300)}}, &out)
	if out.Generations != 3 || out.StopReason != "max evaluations" {
		t.Fatalf("AnyOf halt = (%d, %q), want (3, max evaluations)", out.Generations, out.StopReason)
	}
}

func TestLoopStagnationStatePreserved(t *testing.T) {
	// The loop polls Stop exactly once per generation, so a Stagnation(3)
	// over a flat trajectory fires after exactly 3 non-improving polls.
	s := &fakeStepper{steps: flat(5, 5, 5, 5, 5, 5, 5, 5)}
	var out core.RunStats
	Loop(s, Options{Stop: core.AnyOf{core.MaxGenerations(100), core.NewStagnation(3)}}, &out)
	// Poll at gen0 (Improved=true), then gens 1..3 flat after the gen-1
	// improvement from Worst() to 5: stagnation counts gens 2,3,4.
	if out.StopReason != "stagnation" {
		t.Fatalf("StopReason = %q, want stagnation", out.StopReason)
	}
	if out.Generations != 4 {
		t.Fatalf("Generations = %d, want 4", out.Generations)
	}
}

func TestFuncsNilSafe(t *testing.T) {
	var f Funcs
	f.OnGeneration(core.Status{})
	f.OnMigration(1, 2)
	f.OnRestart(1, 2)
	f.OnDone(&core.RunStats{})

	var called []string
	f2 := Funcs{
		Generation: func(core.Status) { called = append(called, "g") },
		Migration:  func(int, int64) { called = append(called, "m") },
		Restart:    func(int, int64) { called = append(called, "r") },
		Done:       func(*core.RunStats) { called = append(called, "d") },
	}
	f2.OnGeneration(core.Status{})
	f2.OnMigration(1, 2)
	f2.OnRestart(1, 2)
	f2.OnDone(&core.RunStats{})
	if got := fmt.Sprint(called); got != "[g m r d]" {
		t.Fatalf("Funcs dispatch = %v", got)
	}
}

// countingStop is MaxGenerations that counts its polls.
type countingStop struct {
	max   int
	polls *int
}

func (c countingStop) Done(s core.Status) bool { *c.polls++; return s.Generation >= c.max }
func (c countingStop) Reason() string          { return "max generations" }

// TestLoopCancelled: a Loop whose context is cancelled at generation g —
// from an observer, so the instant is exact — completes no further
// generation, asks the stop condition nothing more, reports "cancelled"
// with the accounting of the g generations it did complete, and fires
// OnDone once.
func TestLoopCancelled(t *testing.T) {
	const g = 3
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := &fakeStepper{steps: flat(1, 3, 2, 5, 4, 9), evalsPer: 10}
	rec := &recorder{}
	polls := 0
	cancelAt := Funcs{Generation: func(st core.Status) {
		if st.Generation == g {
			cancel()
		}
	}}
	var out core.RunStats
	Loop(s, Options{Stop: countingStop{6, &polls}}.With(Control{
		Context: ctx, Trace: true, Observers: []Observer{rec, cancelAt},
	}), &out)

	if out.Generations != g || out.StopReason != "cancelled" {
		t.Fatalf("halted at (%d, %q), want (%d, cancelled)", out.Generations, out.StopReason, g)
	}
	if out.Evaluations != 10*g || out.BestFitness != 3 || out.Best == nil || len(out.Trace) != g {
		t.Errorf("partial stats %+v are not those of generation %d", out, g)
	}
	if polls != g {
		t.Errorf("stop condition polled %d times, want %d (none after the cancellation)", polls, g)
	}
	if len(s.calls) != g {
		t.Errorf("stepped %v after a cancellation at generation %d", s.calls, g)
	}
	want := []string{"gen(0,0,true)", "gen(1,1,true)", "gen(2,3,true)", "gen(3,3,false)", "done(3)"}
	if !reflect.DeepEqual(rec.events, want) {
		t.Errorf("events = %v, want %v", rec.events, want)
	}
}

// TestLoopContextNeverCancelled: no context, a background context and a
// live cancellable one are the same run.
func TestLoopContextNeverCancelled(t *testing.T) {
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	var want core.RunStats
	for i, ctx := range []context.Context{nil, context.Background(), live} {
		var out core.RunStats
		Loop(&fakeStepper{steps: flat(1, 3, 2, 5), evalsPer: 10},
			Options{Stop: core.MaxGenerations(4), Context: ctx}, &out)
		out.Elapsed = 0
		if i == 0 {
			want = out
		} else if !reflect.DeepEqual(out, want) {
			t.Errorf("context %d: stats %+v, want %+v", i, out, want)
		}
	}
	if want.Generations != 4 || want.StopReason != "max generations" {
		t.Fatalf("uncancelled run halted at (%d, %q)", want.Generations, want.StopReason)
	}
}

// TestLoopAlreadyCancelled: a run started under a dead context reports
// its initial population and stops before the first step.
func TestLoopAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := &fakeStepper{steps: flat(1), start: 7}
	rec := &recorder{}
	var out core.RunStats
	Loop(s, Options{Stop: core.MaxGenerations(1), Context: ctx, Observers: []Observer{rec}}, &out)
	if out.Generations != 0 || out.StopReason != "cancelled" || out.BestFitness != 7 || len(s.calls) != 0 {
		t.Fatalf("stats %+v after %v steps, want generation 0, cancelled, best 7, no step", out, s.calls)
	}
	if want := []string{"gen(0,7,true)", "done(0)"}; !reflect.DeepEqual(rec.events, want) {
		t.Errorf("events = %v, want %v", rec.events, want)
	}
}

// TestOptionsWith: the caller's control lands after the runtime's own
// observers, in a slice that is neither side's backing array.
func TestOptionsWith(t *testing.T) {
	own, a, b := &recorder{}, &recorder{}, &recorder{}
	padded := make([]Observer, 1, 8) // spare capacity: an append would write here
	padded[0] = a
	ctx := context.Background()
	ctl := Control{Context: ctx, Trace: true, Observers: padded}

	o1 := Options{Stop: core.MaxGenerations(1), Observers: []Observer{own}, Trace: false}.With(ctl)
	o2 := Options{Stop: core.MaxGenerations(1), Observers: []Observer{b}}.With(ctl)
	if !o1.Trace || o1.Context != ctx || o1.Stop == nil {
		t.Errorf("With dropped a field: %+v", o1)
	}
	if len(o1.Observers) != 2 || o1.Observers[0] != Observer(own) || o1.Observers[1] != Observer(a) {
		t.Errorf("observers %v, want the runtime's own, then the caller's", o1.Observers)
	}
	if len(o2.Observers) != 2 || o2.Observers[0] != Observer(b) || o2.Observers[1] != Observer(a) {
		t.Errorf("a second With on the same control saw %v", o2.Observers)
	}
	if full := padded[:cap(padded)]; full[1] != nil {
		t.Errorf("With wrote into the caller's backing array: %v", full)
	}
	if got := (Options{}).With(Control{}); got.Observers != nil || got.Context != nil {
		t.Errorf("zero control changed zero options: %+v", got)
	}
	if (Control{}).Ctx() != context.Background() || ctl.Ctx() != ctx {
		t.Error("Ctx is not the given context, or Background for none")
	}
}

// nullStepper does nothing: what is left is Loop's own cost.
type nullStepper struct{}

func (nullStepper) Step(int) StepInfo                 { return StepInfo{} }
func (nullStepper) Best() (*core.Individual, float64) { return nil, 0 }
func (nullStepper) Evaluations() int64                { return 0 }
func (nullStepper) Direction() core.Direction         { return core.Maximize }

// BenchmarkLoop is Loop's cost per generation over a free stepper, with
// no context and under a live cancellable one (one non-blocking channel
// poll per generation), with zero and four no-op observers.
func BenchmarkLoop(b *testing.B) {
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, c := range []struct {
		name string
		ctx  context.Context
		obs  int
	}{{"nil/obs0", nil, 0}, {"nil/obs4", nil, 4}, {"live/obs0", live, 0}, {"live/obs4", live, 4}} {
		b.Run(c.name, func(b *testing.B) {
			obs := make([]Observer, c.obs)
			for i := range obs {
				obs[i] = Funcs{}
			}
			var out core.RunStats
			b.ReportAllocs()
			b.ResetTimer()
			Loop(nullStepper{}, Options{Stop: core.MaxGenerations(b.N), Context: c.ctx, Observers: obs}, &out)
		})
	}
}
