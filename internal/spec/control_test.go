package spec

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pga/internal/core"
	"pga/internal/engine"
)

// controlCase is one way of running a model under caller control: every
// spec.Models() name, and for islands each of its run modes. The budgets
// are long enough, and the problems hard enough, that no run ends by
// itself before generation cancelGen.
type controlCase struct {
	name, doc string
	// free marks the free-running island discipline: scheduling
	// dependent, no run-level generation, OnDone only.
	free bool
	// rescored marks a report whose Best is re-evaluated after the loop
	// (hga's precise re-scoring), so it is not the loop's best.
	rescored bool
}

const cancelGen = 5

var controlCases = []controlCase{
	{name: ModelGenerational, doc: `{"model":"generational","problem":{"name":"onemax","size":128},"engine":{"pop":10},"budget":{"generations":12},"seed":1}`},
	{name: ModelSteadyState, doc: `{"model":"steadystate","problem":{"name":"onemax","size":128},"engine":{"pop":10,"replace":"random"},"budget":{"generations":12},"seed":2}`},
	{name: ModelParallel, doc: `{"model":"parallel","problem":{"name":"onemax","size":128},"engine":{"pop":10,"workers":2},"budget":{"generations":12},"seed":3}`},
	{name: ModelMasterSlave, doc: `{"model":"masterslave","problem":{"name":"onemax","size":128},"engine":{"pop":10},"farm":{"workers":2},"budget":{"generations":12},"seed":4}`},
	{name: ModelCellular, doc: `{"model":"cellular","problem":{"name":"onemax","size":128},"engine":{"grid":{"rows":3,"cols":3}},"budget":{"generations":12},"seed":5}`},
	{name: ModelIslands, doc: `{"model":"islands","problem":{"name":"onemax","size":128},"engine":{"pop":8},"islands":{"demes":3,"migration":{"interval":2}},"budget":{"generations":12},"seed":6}`},
	{name: ModelIslands + "/sync-parallel", doc: `{"model":"islands","problem":{"name":"onemax","size":128},"engine":{"pop":8},"islands":{"demes":3,"mode":"parallel","migration":{"interval":2}},"budget":{"generations":12},"seed":6}`},
	{name: ModelIslands + "/supervised", doc: `{"model":"islands","problem":{"name":"onemax","size":128},"engine":{"pop":8},"islands":{"demes":3,"mode":"parallel","migration":{"interval":2},"resilience":"eager","faults":[{"kind":"panic","deme":1,"gen":3}]},"budget":{"generations":12},"seed":6}`},
	{name: ModelIslands + "/async", free: true, doc: `{"model":"islands","problem":{"name":"onemax","size":128},"engine":{"pop":8},"islands":{"demes":3,"mode":"parallel","migration":{"interval":2,"async":true}},"budget":{"generations":12},"seed":6}`},
	{name: ModelP2P, doc: `{"model":"p2p","problem":{"name":"onemax","size":128},"engine":{"pop":6},"p2p":{"peers":4,"view":2,"gossip_every":2},"budget":{"generations":12},"seed":7}`},
	{name: ModelHGA, rescored: true, doc: `{"model":"hga","problem":{"name":"sphere","size":4},"engine":{"pop":10},"hga":{"layers":[1,2]},"budget":{"cost":400},"seed":8}`},
	{name: ModelSIM, doc: `{"model":"sim","problem":{"name":"zdt1","size":5},"sim":{"deme_size":10},"budget":{"generations":12},"seed":9}`},
}

// TestControlCasesCoverModels keeps the table honest: a model added to
// the spec without a row here fails.
func TestControlCasesCoverModels(t *testing.T) {
	have := map[string]bool{}
	for _, c := range controlCases {
		have[mustParse(t, c.doc).Model] = true
	}
	for _, m := range Models() {
		if !have[m] {
			t.Errorf("model %q has no controlCases row", m)
		}
	}
}

// witness is an observer that records what it is told; safe for the
// concurrent calls a sweep makes.
type witness struct {
	mu       sync.Mutex
	statuses []core.Status
	migrated int64
	restarts int64
	done     []core.RunStats
	// at, when non-nil, is called (unlocked) with every status.
	at func(core.Status)
}

func (w *witness) OnGeneration(s core.Status) {
	w.mu.Lock()
	w.statuses = append(w.statuses, s)
	w.mu.Unlock()
	if w.at != nil {
		w.at(s)
	}
}
func (w *witness) OnMigration(_ int, n int64) { w.mu.Lock(); w.migrated += n; w.mu.Unlock() }
func (w *witness) OnRestart(_ int, n int64)   { w.mu.Lock(); w.restarts += n; w.mu.Unlock() }
func (w *witness) OnDone(st *core.RunStats)   { w.mu.Lock(); w.done = append(w.done, *st); w.mu.Unlock() }

// runCase builds c afresh and runs it under ctl.
func runCase(t *testing.T, c controlCase, ctl engine.Control) *Report {
	t.Helper()
	b, err := Build(*mustParse(t, c.doc))
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return b.Run(RunOpts{Control: ctl})
}

// TestObserversSeeEveryModel: whichever model runs, an attached observer
// hears generation 0 and every completed generation in order, the
// migrations and restarts the report totals, and OnDone once with the
// report's own accounting — and attaching it changes no report byte. The
// free-running islands deliver OnDone only.
func TestObserversSeeEveryModel(t *testing.T) {
	for _, c := range controlCases {
		t.Run(c.name, func(t *testing.T) {
			w := &witness{}
			rep := runCase(t, c, engine.Control{Observers: []engine.Observer{w}})
			if len(w.done) != 1 {
				t.Fatalf("OnDone fired %d times", len(w.done))
			}
			if d := w.done[0]; d.Generations != rep.Generations || d.Evaluations != rep.Evaluations || d.StopReason != rep.StopReason {
				t.Errorf("OnDone saw (%d gens, %d evals, %q), report says (%d, %d, %q)",
					d.Generations, d.Evaluations, d.StopReason, rep.Generations, rep.Evaluations, rep.StopReason)
			}
			if c.free {
				if len(w.statuses) != 0 {
					t.Errorf("a free-running island run fired %d run-level OnGeneration", len(w.statuses))
				}
				return // scheduling dependent: no byte identity to check
			}
			if len(w.statuses) != rep.Generations+1 {
				t.Fatalf("OnGeneration fired %d times for %d generations", len(w.statuses), rep.Generations)
			}
			for g, s := range w.statuses {
				if s.Generation != g {
					t.Fatalf("OnGeneration call %d carried generation %d", g, s.Generation)
				}
			}
			if w.migrated != rep.Migrations && rep.Model == ModelIslands {
				t.Errorf("OnMigration totalled %d batches, report says %d", w.migrated, rep.Migrations)
			}
			if w.restarts != rep.Restarts {
				t.Errorf("OnRestart totalled %d, report says %d", w.restarts, rep.Restarts)
			}
			bare, _ := json.Marshal(runCase(t, c, engine.Control{}))
			if watched, _ := json.Marshal(rep); !bytes.Equal(watched, bare) {
				t.Errorf("an observer changed the report:\n%s\n%s", watched, bare)
			}
		})
	}
}

// TestCancelIsTruncate: for every deterministic way of running a model, a
// run cancelled at generation g — from an observer, so the instant is
// exact — reports exactly the state an uncancelled run of the same spec
// was in at g: g generations, stop "cancelled", the best and evaluation
// count of the recorded status, and a trace equal to the first g+1
// points.
func TestCancelIsTruncate(t *testing.T) {
	for _, c := range controlCases {
		if c.free {
			continue // see TestCancelFreeRunningIslands
		}
		t.Run(c.name, func(t *testing.T) {
			full := &witness{}
			whole := runCase(t, c, engine.Control{Trace: true, Observers: []engine.Observer{full}})
			if whole.Generations <= cancelGen {
				t.Fatalf("the uncancelled run ended by itself at generation %d (%q)", whole.Generations, whole.StopReason)
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cut := &witness{at: func(s core.Status) {
				if s.Generation == cancelGen {
					cancel()
				}
			}}
			rep := runCase(t, c, engine.Control{Context: ctx, Trace: true, Observers: []engine.Observer{cut}})

			at := full.statuses[cancelGen]
			if rep.Generations != cancelGen || rep.StopReason != "cancelled" {
				t.Fatalf("halted at (%d, %q), want (%d, cancelled)", rep.Generations, rep.StopReason, cancelGen)
			}
			if rep.Evaluations != at.Evaluations {
				t.Errorf("evaluations %d, the uncancelled run had %d at generation %d", rep.Evaluations, at.Evaluations, cancelGen)
			}
			if !c.rescored && rep.Best != at.BestFitness {
				t.Errorf("best %v, the uncancelled run had %v at generation %d", rep.Best, at.BestFitness, cancelGen)
			}
			got, _ := json.Marshal(rep.Trace)
			want, _ := json.Marshal(whole.Trace[:len(rep.Trace)])
			if len(rep.Trace) == 0 || rep.Trace[len(rep.Trace)-1].Generation != cancelGen || !bytes.Equal(got, want) {
				t.Errorf("trace is not the uncancelled run's up to generation %d:\n%s\n%s", cancelGen, got, want)
			}
			if len(cut.statuses) != cancelGen+1 || len(cut.done) != 1 {
				t.Errorf("the cancelled run fired OnGeneration %d times and OnDone %d times", len(cut.statuses), len(cut.done))
			}
		})
	}
}

// TestCancelFreeRunningIslands: the async discipline has no generation to
// cancel at, so it is cancelled from outside, some time into a run that
// cannot end by itself: every deme stops, the run reports "cancelled"
// short of its budget, and OnDone fires once.
func TestCancelFreeRunningIslands(t *testing.T) {
	const budget = 100000000
	for _, resilience := range []string{"none", "default"} {
		doc := `{"model":"islands","problem":{"name":"nk","size":128},"engine":{"pop":20},"islands":{"demes":4,"mode":"parallel","resilience":"` +
			resilience + `","migration":{"interval":2,"async":true}},"budget":{"generations":100000000},"seed":6}`
		b, err := Build(*mustParse(t, doc))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(30*time.Millisecond, cancel)
		w := &witness{}
		rep := b.Run(RunOpts{Control: engine.Control{Context: ctx, Observers: []engine.Observer{w}}})
		timer.Stop()
		cancel()
		if rep.StopReason != "cancelled" || rep.Generations >= budget {
			t.Errorf("resilience %s: halted at (%d, %q), want cancelled short of the budget", resilience, rep.Generations, rep.StopReason)
		}
		if len(w.done) != 1 || w.done[0].StopReason != "cancelled" || len(w.statuses) != 0 {
			t.Errorf("resilience %s: observer heard %d OnDone (%+v) and %d OnGeneration", resilience, len(w.done), w.done, len(w.statuses))
		}
	}
}

// moduleGoroutines returns the header ("goroutine N") of every live
// goroutine with a frame in this module. It reads the stack dump, like
// poolWorkers, so goroutines of the test framework do not count.
func moduleGoroutines() map[string]bool {
	buf := make([]byte, 1<<20)
	ids := map[string]bool{}
	for _, g := range bytes.Split(buf[:runtime.Stack(buf, true)], []byte("\n\n")) {
		if bytes.Contains(g, []byte("pga/internal/")) {
			header, _, _ := bytes.Cut(g, []byte(" ["))
			ids[string(header)] = true
		}
	}
	return ids
}

// leaked waits for every module goroutine not in before to leave and
// returns the ones still there at the deadline.
func leaked(before map[string]bool) []string {
	deadline := time.Now().Add(3 * time.Second)
	for {
		var extra []string
		for id := range moduleGoroutines() {
			if !before[id] {
				extra = append(extra, id)
			}
		}
		if len(extra) == 0 || time.Now().After(deadline) {
			return extra
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCancelledRunLeavesNoGoroutine: a run of any model, cancelled
// mid-run, has joined every goroutine it started by the time Run returns
// (give or take the moment a finished goroutine takes to leave).
func TestCancelledRunLeavesNoGoroutine(t *testing.T) {
	// The helper must be able to see a goroutine of this module at all.
	before := moduleGoroutines()
	release := make(chan struct{})
	go func() { <-release }()
	if len(leaked(before)) != 1 {
		t.Fatal("moduleGoroutines did not see a parked goroutine of this package: the stack pattern is stale")
	}
	close(release)
	if extra := leaked(before); len(extra) != 0 {
		t.Fatalf("the parked goroutine did not leave: %v", extra)
	}

	for _, c := range controlCases {
		t.Run(c.name, func(t *testing.T) {
			before := moduleGoroutines()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ctl := engine.Control{Context: ctx, Observers: []engine.Observer{&witness{at: func(s core.Status) {
				if s.Generation == cancelGen {
					cancel()
				}
			}}}}
			if c.free {
				cancel() // no generation hook to cancel from: start it dead
			}
			if rep := runCase(t, c, ctl); rep.StopReason != "cancelled" {
				t.Fatalf("halted at (%d, %q), want cancelled", rep.Generations, rep.StopReason)
			}
			if extra := leaked(before); len(extra) != 0 {
				buf := make([]byte, 1<<20)
				t.Fatalf("goroutines outlived the cancelled run: %v\n%s", extra, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}

// cancelSweep is a 12-run generational sweep whose cells are long enough
// to be cancelled in.
func cancelSweep(t *testing.T) *Sweep {
	t.Helper()
	return parseSweep(t, "cancel", `{"base":`+controlCases[0].doc+`,"sweep":{"seed":[3,4,5,6,7,8]},"replicates":2}`)
}

// TestSweepCancelledPrefix: a sweep cancelled while cell k runs returns
// exactly the cells before k, byte-identical to the uncancelled sweep's,
// and an error that wraps the context's cause. On one worker k is exact;
// on four a lower cell may still be running when k cells are done, so
// the prefix is shorter — and still a prefix.
func TestSweepCancelledPrefix(t *testing.T) {
	const k = 5
	all, err := cancelSweep(t).run(RunOpts{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	because := errors.New("operator said stop")
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancelCause(context.Background())
		var finished atomic.Int64
		w := engine.Funcs{
			// The first generation heard after k cells are done belongs to
			// a cell of index at least k.
			Generation: func(s core.Status) {
				if finished.Load() >= k && s.Generation == 2 {
					cancel(because)
				}
			},
			Done: func(*core.RunStats) { finished.Add(1) },
		}
		reports, err := cancelSweep(t).run(RunOpts{Control: engine.Control{Context: ctx, Observers: []engine.Observer{w}}}, workers)
		cancel(nil)
		if !errors.Is(err, because) {
			t.Fatalf("%d workers: error %v does not wrap the cancellation cause", workers, err)
		}
		if workers == 1 && len(reports) != k {
			t.Fatalf("one worker: %d reports, want the %d before the cancelled cell", len(reports), k)
		}
		if len(reports) > int(finished.Load()) || len(reports) >= len(all) {
			t.Fatalf("%d workers: %d reports of %d with %d cells finished", workers, len(reports), len(all), finished.Load())
		}
		for _, r := range reports {
			if r == nil || r.StopReason == "cancelled" {
				t.Fatalf("%d workers: the prefix holds an unfinished report: %+v", workers, r)
			}
		}
		got, _ := json.Marshal(reports)
		if want, _ := json.Marshal(all[:len(reports)]); !bytes.Equal(got, want) {
			t.Errorf("%d workers: the prefix differs from the uncancelled sweep's\n%s\n%s", workers, got, want)
		}
		// A joined worker has called Done but may still be returning.
		for deadline := time.Now().Add(3 * time.Second); poolWorkers() > 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d workers: %d pool workers alive after the cancelled Run returned", workers, poolWorkers())
			}
		}
	}

	// Cancelled before it starts: nothing runs, nothing is claimed.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reports, err := cancelSweep(t).run(RunOpts{Control: engine.Control{Context: ctx}}, 4)
	if len(reports) != 0 || !errors.Is(err, context.Canceled) {
		t.Errorf("a dead context ran %d cells, error %v", len(reports), err)
	}
}

// TestSweepSharedObserversSlice: one RunOpts — an Observers slice with
// spare capacity and an OnStep to fold in next to it — is shared by four
// workers. Under -race this fails if any run appends to the caller's
// slice instead of composing a fresh one.
func TestSweepSharedObserversSlice(t *testing.T) {
	var generations, steps atomic.Int64
	padded := make([]engine.Observer, 1, 8)
	padded[0] = engine.Funcs{Generation: func(core.Status) { generations.Add(1) }}
	for name, sw := range testSweeps(t) {
		generations.Store(0)
		steps.Store(0)
		reports, err := sw.run(RunOpts{
			Control: engine.Control{Observers: padded},
			OnStep:  func(core.Status) { steps.Add(1) },
		}, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var gens int64
		for _, r := range reports {
			gens += int64(r.Generations)
		}
		if steps.Load() != gens || generations.Load() != gens+int64(len(reports)) {
			t.Errorf("%s: %d generations over %d runs: OnStep fired %d times, the observer %d",
				name, gens, len(reports), steps.Load(), generations.Load())
		}
	}
	if full := padded[:cap(padded)]; full[1] != nil {
		t.Errorf("a run wrote into the shared Observers backing array: %v", full)
	}
}
