package spec

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"pga/internal/core"
	"pga/internal/rng"
)

const sweepDocJSON = `{
  "name": "pop-by-interval",
  "base": {
    "model": "islands",
    "problem": {"name": "onemax", "size": 16},
    "engine": {"pop": 8},
    "islands": {"demes": 3, "migration": {"interval": 2}},
    "budget": {"generations": 3},
    "seed": 11
  },
  "sweep": {
    "engine.pop": [8, 12],
    "islands.migration.interval": [1, 2, 4]
  },
  "replicates": 2
}`

func TestParseFileSingle(t *testing.T) {
	f, err := ParseFile([]byte(`{"model":"generational","problem":{"name":"onemax","size":8},"seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if f.Single == nil || f.Sweep != nil {
		t.Fatalf("single-run document misclassified: %+v", f)
	}
}

func TestParseFileSweep(t *testing.T) {
	f, err := ParseFile([]byte(sweepDocJSON))
	if err != nil {
		t.Fatal(err)
	}
	if f.Sweep == nil || f.Single != nil {
		t.Fatalf("sweep document misclassified: %+v", f)
	}
	if f.Name != "pop-by-interval" {
		t.Errorf("name = %q", f.Name)
	}
	// Axes sort lexically by path.
	if len(f.Sweep.Axes) != 2 || f.Sweep.Axes[0].Path != "engine.pop" || f.Sweep.Axes[1].Path != "islands.migration.interval" {
		t.Fatalf("axes: %+v", f.Sweep.Axes)
	}

	cells, cerr := f.Sweep.Cells()
	if cerr != nil {
		t.Fatal(cerr)
	}
	if len(cells) != 2*3*2 { // 2 pops × 3 intervals × 2 replicates
		t.Fatalf("got %d cells, want 12", len(cells))
	}
	// Row-major, last axis fastest: cell 0 = (pop 8, interval 1),
	// cell 1 = (pop 8, interval 2), ..., cell 3 = (pop 12, interval 1).
	if got := cells[0].Spec; got.Engine.Pop != 8 || got.Islands.Migration.Interval != 1 {
		t.Errorf("cell 0: pop=%d interval=%d", got.Engine.Pop, got.Islands.Migration.Interval)
	}
	if got := cells[2*2].Spec; got.Engine.Pop != 8 || got.Islands.Migration.Interval != 4 {
		t.Errorf("cell 2: pop=%d interval=%d", got.Engine.Pop, got.Islands.Migration.Interval)
	}
	if got := cells[3*2].Spec; got.Engine.Pop != 12 || got.Islands.Migration.Interval != 1 {
		t.Errorf("cell 3: pop=%d interval=%d", got.Engine.Pop, got.Islands.Migration.Interval)
	}

	// Seeds: cell 0 rep 0 keeps the base seed; all others derive and are
	// pairwise distinct.
	if cells[0].Spec.Seed != 11 {
		t.Errorf("cell 0 rep 0 seed = %d, want base 11", cells[0].Spec.Seed)
	}
	seen := map[uint64]bool{}
	for _, c := range cells {
		if seen[c.Spec.Seed] {
			t.Errorf("duplicate derived seed %d", c.Spec.Seed)
		}
		seen[c.Spec.Seed] = true
	}
	// Untouched base fields carry into every cell.
	for _, c := range cells {
		if c.Spec.Islands.Demes != 3 || c.Spec.Budget.Generations != 3 {
			t.Errorf("cell %d lost base fields: %+v", c.Index, c.Spec)
		}
	}
}

func TestDeriveSeed(t *testing.T) {
	if DeriveSeed(42, 0, 0) != 42 {
		t.Error("cell 0 replicate 0 must keep the base seed")
	}
	if DeriveSeed(42, 1, 0) == 42 || DeriveSeed(42, 0, 1) == 42 {
		t.Error("derived seeds must differ from the base")
	}
	if DeriveSeed(42, 1, 0) == DeriveSeed(42, 0, 1) {
		t.Error("cell and replicate must mix differently")
	}
	if DeriveSeed(42, 1, 0) != DeriveSeed(42, 1, 0) {
		t.Error("derivation must be deterministic")
	}
}

// TestSeedAxis checks sweeping the "seed" path pins each cell's seed to
// the swept value (replicates still derive from it).
func TestSeedAxis(t *testing.T) {
	doc := `{
	  "base": {"model":"generational","problem":{"name":"onemax","size":8},"engine":{"pop":6},"budget":{"generations":2},"seed":1},
	  "sweep": {"seed": [100, 200]},
	  "replicates": 2
	}`
	f, err := ParseFile([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	cells, cerr := f.Sweep.Cells()
	if cerr != nil {
		t.Fatal(cerr)
	}
	if len(cells) != 4 {
		t.Fatalf("got %d cells", len(cells))
	}
	if cells[0].Spec.Seed != 100 || cells[2].Spec.Seed != 200 {
		t.Errorf("replicate 0 seeds: %d, %d; want the swept values", cells[0].Spec.Seed, cells[2].Spec.Seed)
	}
	if cells[1].Spec.Seed != DeriveSeed(100, 0, 1) || cells[3].Spec.Seed != DeriveSeed(200, 0, 1) {
		t.Errorf("replicate 1 seeds must derive from the swept value")
	}
}

func TestRangeAxis(t *testing.T) {
	doc := `{
	  "base": {"model":"generational","problem":{"name":"onemax","size":8},"engine":{"pop":6},"budget":{"generations":2},"seed":1},
	  "sweep": {"engine.pop": {"from": 4, "to": 10, "step": 2}}
	}`
	f, err := ParseFile([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	var pops []int
	cells, _ := f.Sweep.Cells()
	for _, c := range cells {
		pops = append(pops, c.Spec.Engine.Pop)
	}
	want := []int{4, 6, 8, 10}
	if len(pops) != len(want) {
		t.Fatalf("pops %v, want %v", pops, want)
	}
	for i := range want {
		if pops[i] != want[i] {
			t.Fatalf("pops %v, want %v", pops, want)
		}
	}
}

func TestSweepErrors(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		path string
	}{
		{"bad base", `{"base":{"model":"x","problem":{"name":"onemax","size":8}},"sweep":{"seed":[1]}}`, "base.model"},
		{"unknown sweep path", `{"base":{"model":"generational","problem":{"name":"onemax","size":8}},"sweep":{"engine.popsize":[4]}}`, "sweep(cell 0).(document)"},
		{"invalid cell", `{"base":{"model":"generational","problem":{"name":"onemax","size":8}},"sweep":{"engine.pop":[4,1]}}`, "sweep(cell 1).engine.pop"},
		{"empty axis", `{"base":{"model":"generational","problem":{"name":"onemax","size":8}},"sweep":{"engine.pop":[]}}`, "sweep.engine.pop"},
		{"bad range step", `{"base":{"model":"generational","problem":{"name":"onemax","size":8}},"sweep":{"engine.pop":{"from":2,"to":8,"step":0}}}`, "sweep.engine.pop.step"},
		{"negative replicates", `{"base":{"model":"generational","problem":{"name":"onemax","size":8}},"sweep":{"seed":[1]},"replicates":-1}`, "replicates"},
		{"replicates past the run cap", `{"base":{"model":"generational","problem":{"name":"onemax","size":8}},"sweep":{"engine.pop":[4,6]},"replicates":20000000}`, "replicates"},
		{"unknown sweep key", `{"base":{"model":"generational","problem":{"name":"onemax","size":8}},"sweep":{"seed":[1]},"bogus":true}`, "(document)"},
		{"path through scalar", `{"base":{"model":"generational","problem":{"name":"onemax","size":8},"seed":3},"sweep":{"seed.low":[1]}}`, "sweep.seed.low"},
		{"zipped tuple too short", `{"base":{"model":"generational","problem":{"name":"onemax","size":8}},"sweep":{"engine.pop,seed":[[4,1],[6]]}}`, "sweep.engine.pop,seed"},
		{"zipped value not a tuple", `{"base":{"model":"generational","problem":{"name":"onemax","size":8}},"sweep":{"engine.pop,seed":[4,6]}}`, "sweep.engine.pop,seed"},
		{"path in two axes", `{"base":{"model":"generational","problem":{"name":"onemax","size":8}},"sweep":{"engine.pop,seed":[[4,1]],"seed":[2]}}`, "sweep.seed"},
		{"range on a zipped key", `{"base":{"model":"generational","problem":{"name":"onemax","size":8}},"sweep":{"engine.pop,seed":{"from":1,"to":3}}}`, "sweep.engine.pop,seed"},
		{"empty path in a zip", `{"base":{"model":"generational","problem":{"name":"onemax","size":8}},"sweep":{"engine.pop,":[[4,1]]}}`, "sweep"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseFile([]byte(tc.doc))
			if err == nil {
				t.Fatalf("ParseFile accepted %s", tc.doc)
			}
			if !hasPath(fieldPaths(t, err), tc.path) {
				t.Errorf("error paths %v do not mention %q", fieldPaths(t, err), tc.path)
			}
		})
	}
}

// TestZippedAxis: a zipped axis steps its paths together, one cell per
// tuple, and records each path in Overrides on its own.
func TestZippedAxis(t *testing.T) {
	sw := parseSweep(t, "zip", `{
	  "base": {"model":"islands","problem":{"name":"onemax","size":8},"budget":{"generations":2},"seed":1},
	  "sweep": {"islands.demes,engine.pop": [[1,16],[2,8],[4,4]], "seed": [5,6]}
	}`)
	cells, _ := sw.Cells()
	if len(cells) != 3*2 {
		t.Fatalf("got %d cells, want 6", len(cells))
	}
	for i, want := range [][3]int{{1, 16, 5}, {1, 16, 6}, {2, 8, 5}, {2, 8, 6}, {4, 4, 5}, {4, 4, 6}} {
		c := cells[i]
		if c.Spec.Islands.Demes != want[0] || c.Spec.Engine.Pop != want[1] || c.Spec.Seed != uint64(want[2]) {
			t.Errorf("cell %d: demes=%d pop=%d seed=%d, want %v", i, c.Spec.Islands.Demes, c.Spec.Engine.Pop, c.Spec.Seed, want)
		}
		if len(c.Overrides) != 3 || c.Overrides["islands.demes"] == nil || c.Overrides["engine.pop"] == nil {
			t.Errorf("cell %d overrides %v, want one entry per path", i, c.Overrides)
		}
	}
}

// TestZippedOnePathIsPlainAxis: a zip whose second path only restates
// the base expands exactly as the plain axis of its first path.
func TestZippedOnePathIsPlainAxis(t *testing.T) {
	const base = `{"model":"generational","problem":{"name":"onemax","size":8},"budget":{"generations":2},"seed":1}`
	plain := parseSweep(t, "plain", `{"base":`+base+`,"sweep":{"engine.pop":[6,8,10]},"replicates":2}`)
	zipped := parseSweep(t, "zipped", `{"base":`+base+`,"sweep":{"engine.pop,budget.generations":[[6,2],[8,2],[10,2]]},"replicates":2}`)
	pc, _ := plain.Cells()
	zc, _ := zipped.Cells()
	if len(pc) != len(zc) {
		t.Fatalf("%d plain cells, %d zipped", len(pc), len(zc))
	}
	for i := range pc {
		if !reflect.DeepEqual(pc[i].Spec, zc[i].Spec) || pc[i].Index != zc[i].Index || pc[i].Replicate != zc[i].Replicate {
			t.Errorf("cell %d: plain %+v, zipped %+v", i, pc[i], zc[i])
		}
	}
}

// TestOverridesNotAliased: an object-valued axis with a path beneath it
// in a later axis. Each cell's Overrides must hold the axis values as
// written and re-derive the cell's spec, and the axes must come out of
// expansion unchanged.
func TestOverridesNotAliased(t *testing.T) {
	const base = `{"model":"generational","problem":{"name":"onemax","size":8},"budget":{"generations":2},"seed":1}`
	const axes = `{"engine":[{"pop":10},{"pop":12}],"engine.crossover_rate":[0.6,0.8],"seed":[3]}`
	var written map[string][]any
	if err := unmarshalNumbers([]byte(axes), &written); err != nil {
		t.Fatal(err)
	}
	sw := parseSweep(t, "alias", `{"base":`+base+`,"sweep":`+axes+`}`)
	cells, _ := sw.Cells()
	for _, c := range cells {
		if want := written["engine"][c.Index/2]; !reflect.DeepEqual(c.Overrides["engine"], want) {
			t.Errorf("cell %d: Overrides[engine] = %v, want %v as written", c.Index, c.Overrides["engine"], want)
		}
		var doc map[string]any
		if err := unmarshalNumbers([]byte(base), &doc); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(c.Overrides))
		for k := range c.Overrides {
			keys = append(keys, k)
		}
		sort.Strings(keys) // a prefix sorts before the paths beneath it
		for _, k := range keys {
			if err := setPath(doc, k, deepCopy(c.Overrides[k])); err != nil {
				t.Fatal(err)
			}
		}
		data, _ := json.Marshal(doc)
		got, err := Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*got, c.Spec) {
			t.Errorf("cell %d: overrides %v re-derive %+v, want %+v", c.Index, c.Overrides, got.Engine, c.Spec.Engine)
		}
	}
	for _, ax := range sw.Axes {
		if !reflect.DeepEqual(ax.Values, written[ax.Path]) {
			t.Errorf("axis %s = %v after expansion, want %v", ax.Path, ax.Values, written[ax.Path])
		}
	}
}

// TestSweepRunDeterminism runs a small two-axis sweep twice and requires
// byte-identical marshalled reports — the property the results file
// depends on.
func TestSweepRunDeterminism(t *testing.T) {
	doc := `{
	  "base": {"model":"generational","problem":{"name":"onemax","size":12},"engine":{"pop":6},"budget":{"generations":2},"seed":5},
	  "sweep": {"engine.pop": [6, 8]},
	  "replicates": 2
	}`
	runOnce := func() string {
		f, err := ParseFile([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		reports, rerr := f.Sweep.Run(RunOpts{})
		if rerr != nil {
			t.Fatal(rerr)
		}
		if len(reports) != 4 {
			t.Fatalf("got %d reports", len(reports))
		}
		out, merr := json.Marshal(reports)
		if merr != nil {
			t.Fatal(merr)
		}
		return string(out)
	}
	if first, second := runOnce(), runOnce(); first != second {
		t.Errorf("sweep is not run-twice deterministic:\n%s\n%s", first, second)
	}
}

// TestSweepCellMetadata checks reports carry their cell coordinates and
// overrides.
func TestSweepCellMetadata(t *testing.T) {
	doc := `{
	  "base": {"model":"generational","problem":{"name":"onemax","size":8},"engine":{"pop":6},"budget":{"generations":1},"seed":5},
	  "sweep": {"engine.pop": [6, 8]}
	}`
	f, err := ParseFile([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	reports, rerr := f.Sweep.Run(RunOpts{})
	if rerr != nil {
		t.Fatal(rerr)
	}
	if reports[1].Cell != 1 || reports[1].Replicate != 0 {
		t.Errorf("report 1 coordinates: cell=%d rep=%d", reports[1].Cell, reports[1].Replicate)
	}
	if v, ok := reports[1].Overrides["engine.pop"]; !ok {
		t.Errorf("report 1 overrides missing the axis: %v", reports[1].Overrides)
	} else if n, ok := v.(json.Number); !ok || n.String() != "8" {
		t.Errorf("override value = %#v, want json.Number 8", v)
	}
}

// parseSweep parses a sweep document for a test.
func parseSweep(t *testing.T, name, doc string) *Sweep {
	t.Helper()
	f, err := ParseFile([]byte(doc))
	if err != nil || f.Sweep == nil {
		t.Fatalf("%s: not a valid sweep: %v", name, err)
	}
	return f.Sweep
}

// testSweeps is the checked-in smoke document plus one sweep over every
// model's smoke spec, two seeds by two replicates.
func testSweeps(t *testing.T) map[string]*Sweep {
	t.Helper()
	smoke, err := os.ReadFile("../../examples/sweeps/smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	sweeps := map[string]*Sweep{"smoke.json": parseSweep(t, "smoke.json", string(smoke))}
	for model, base := range smokeSpecs {
		sweeps[model] = parseSweep(t, model, `{"base":`+base+`,"sweep":{"seed":[3,4]},"replicates":2}`)
	}
	return sweeps
}

// TestSweepOrderIndependent is the property the parallel sweep runner
// rests on: a cell's report depends on the cell alone. The cells of each
// of testSweeps run in three shuffled orders, and the reports, put back
// in (cell, replicate) order, must marshal to the bytes Sweep.Run
// produces.
func TestSweepOrderIndependent(t *testing.T) {
	r := rng.New(7)
	for name, sw := range testSweeps(t) {
		ran, err := sw.Run(RunOpts{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, _ := json.Marshal(ran)
		cells, _ := sw.Cells()
		for round := 0; round < 3; round++ {
			reports := make([]*Report, len(cells))
			for _, i := range r.Perm(len(cells)) {
				if reports[i], err = cells[i].run(RunOpts{}); err != nil {
					t.Fatalf("%s cell %d: %v", name, i, err)
				}
			}
			// Cells() lists cells in (cell, replicate) order, so slot i is
			// where report i sorts to.
			if got, _ := json.Marshal(reports); string(got) != string(want) {
				t.Errorf("%s, shuffled order %d: reports differ from Sweep.Run's\n%s\n%s", name, round, got, want)
			}
		}
	}
}

// TestSweepJobsIdentical: the marshalled reports of each of testSweeps
// are the same bytes for one worker, two and more workers than the host
// has cores.
func TestSweepJobsIdentical(t *testing.T) {
	for name, sw := range testSweeps(t) {
		var want []byte
		for _, workers := range []int{1, 2, 8} {
			reports, err := sw.run(RunOpts{}, workers)
			if err != nil {
				t.Fatalf("%s, %d workers: %v", name, workers, err)
			}
			got, _ := json.Marshal(reports)
			if want == nil {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Errorf("%s: reports on %d workers differ from one worker's\n%s\n%s", name, workers, got, want)
			}
		}
	}
}

// TestReportIndependentOfGOMAXPROCS: a generational document large
// enough for two-worker births (internal/ga, births.go) reports the same
// bytes, trace included, on one P and on two.
func TestReportIndependentOfGOMAXPROCS(t *testing.T) {
	const doc = `{"model":"generational","problem":{"name":"onemax","size":1024},` +
		`"engine":{"pop":200,"crossover":{"name":"uniform"},"mutator":{"name":"bitflip"}},` +
		`"budget":{"generations":20},"seed":7}`
	var opts RunOpts
	opts.Trace = true
	var want []byte
	for _, procs := range []int{1, 2} {
		s, err := Parse([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Build(*s)
		if err != nil {
			t.Fatal(err)
		}
		prev := runtime.GOMAXPROCS(procs)
		rep := b.Run(opts)
		runtime.GOMAXPROCS(prev)
		got, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Errorf("report on %d Ps differs from one P's:\n%s\n%s", procs, got, want)
		}
	}
}

// failingSweep is a 12-run sweep of the generational smoke spec (an
// engine model, so OnStep fires) next to a copy whose run k validated
// but cannot build: its problem name is swapped after expansion, which
// no document can do.
func failingSweep(t *testing.T, k int) (good, bad *Sweep) {
	t.Helper()
	doc := `{"base":` + smokeSpecs[ModelGenerational] + `,"sweep":{"seed":[3,4,5,6,7,8]},"replicates":2}`
	good = parseSweep(t, "good", doc)
	bad = parseSweep(t, "bad", doc)
	bad.cells[k].Spec.Problem.Name = "no-such-problem"
	return good, bad
}

// TestSweepErrorPrefix pins the serial error contract on the pool: a
// sweep whose run k fails returns run k's located error and exactly the
// k reports before it, equal to the all-good sweep's.
func TestSweepErrorPrefix(t *testing.T) {
	const k = 5
	good, bad := failingSweep(t, k)
	all, err := good.run(RunOpts{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(all[:k])
	for _, workers := range []int{1, 4} {
		reports, err := bad.run(RunOpts{}, workers)
		if err == nil {
			t.Fatalf("%d workers: the failing sweep ran", workers)
		}
		wantPath := "sweep(cell " + strconv.Itoa(bad.cells[k].Index) + ").problem.name"
		if !hasPath(fieldPaths(t, err), wantPath) {
			t.Errorf("%d workers: error paths %v do not mention %q", workers, fieldPaths(t, err), wantPath)
		}
		if len(reports) != k {
			t.Fatalf("%d workers: %d reports, want the %d before the failing run", workers, len(reports), k)
		}
		if got, _ := json.Marshal(reports); !bytes.Equal(got, want) {
			t.Errorf("%d workers: reports before the failure differ from the good sweep's\n%s\n%s", workers, got, want)
		}
	}
}

// poolWorkers counts the live goroutines running Sweep.run's worker
// body. It reads the stack dump, not runtime.NumGoroutine, so goroutines
// other tests of the package left winding down do not move it.
func poolWorkers() int {
	buf := make([]byte, 1<<20)
	return bytes.Count(buf[:runtime.Stack(buf, true)], []byte("spec.(*Sweep).run.func"))
}

// TestSweepRunJoinsWorkers: Run leaves no pool worker behind, whether it
// succeeds or fails.
func TestSweepRunJoinsWorkers(t *testing.T) {
	good, bad := failingSweep(t, 3)
	var seen atomic.Int64 // proves poolWorkers can see a worker at all
	if _, err := good.run(RunOpts{OnStep: func(core.Status) { seen.Add(int64(poolWorkers())) }}, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := bad.run(RunOpts{}, 4); err == nil {
		t.Fatal("the failing sweep ran")
	}
	// A joined worker has called Done but may still be returning, so
	// give it a moment to leave.
	deadline := time.Now().Add(3 * time.Second)
	for poolWorkers() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d pool workers alive after Run returned", poolWorkers())
		}
		time.Sleep(time.Millisecond)
	}
	if seen.Load() == 0 {
		t.Fatal("poolWorkers saw no worker during the run: the stack pattern is stale")
	}
}

// TestSweepOnStepConcurrent: OnStep is called from the worker
// goroutines, once per generation of every cell, so it must be — and
// here is — safe for concurrent use.
func TestSweepOnStepConcurrent(t *testing.T) {
	doc := `{"base":` + smokeSpecs[ModelGenerational] + `,"sweep":{"seed":[3,4,5,6]},"replicates":2}`
	sw := parseSweep(t, "onstep", doc)
	var steps atomic.Int64
	reports, err := sw.run(RunOpts{OnStep: func(core.Status) { steps.Add(1) }}, 4)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, rep := range reports {
		want += int64(rep.Generations)
	}
	if steps.Load() != want || want == 0 {
		t.Errorf("OnStep fired %d times for %d generations", steps.Load(), want)
	}
}
