package spec

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
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

// TestSweepPathCase: a path segment that names a field in another case
// is refused. The decoder matches keys case-insensitively, so such a key
// was merged with the base's own key for the field, and the base's value
// won wherever it had one.
func TestSweepPathCase(t *testing.T) {
	_, err := ParseFile([]byte(`{"base":{"model":"generational","problem":{"name":"onemax","size":8},"engine":{"pop":6}},"sweep":{"Engine.pop":[4,8]}}`))
	if err == nil {
		t.Fatal("ParseFile accepted the sweep path Engine.pop")
	}
	if !hasPath(fieldPaths(t, err), "sweep.Engine.pop") {
		t.Errorf("error paths %v do not mention sweep.Engine.pop", fieldPaths(t, err))
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

// TestMaskedAxisValue: an object value whose bad key a later axis
// overwrites is accepted, as the cell document it makes is valid; the
// cell takes the later value, and the axis values stay as written.
func TestMaskedAxisValue(t *testing.T) {
	const doc = `{"base":{"model":"generational","problem":{"name":"onemax","size":8},"budget":{"generations":2},"seed":1},
	  "sweep":{"engine":[{"pop":"x","elitism":2},{"pop":6}],"engine.pop":[10]}}`
	sw := parseSweep(t, "masked", doc)
	cells, _ := sw.Cells()
	if len(cells) != 2 || cells[0].Spec.Engine.Pop != 10 || cells[0].Spec.Engine.Elitism != 2 || cells[1].Spec.Engine.Pop != 10 {
		t.Fatalf("cells %+v, want pop 10 in both and elitism 2 in the first", cells)
	}
	if v := sw.Axes[0].Values[0].(map[string]any); v["pop"] != "x" || len(v) != 2 {
		t.Errorf("axis value written during expansion: %v", v)
	}
	want, werr := cellsByJSON(&Sweep{Base: sw.Base, Axes: sw.Axes})
	sameExpansion(t, "masked", cells, nil, want, werr)
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
// enough for lane births (internal/ga, births.go) reports the same
// bytes, trace included, on one P and on two: the lanes run on the
// goroutine that called Step whatever GOMAXPROCS is.
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

// cellsByJSON is the expansion Sweep.Cells replaced, kept as its
// reference: every cell is the base spec's JSON document with the cell's
// axis values set at their paths, marshalled and parsed again.
func cellsByJSON(s *Sweep) ([]Cell, *Error) {
	reps := s.Replicates
	if reps == 0 {
		reps = 1
	}
	dims := make([]int, len(s.Axes))
	paths := make([][]string, len(s.Axes))
	swept := map[string]bool{}
	total := 1
	for i, ax := range s.Axes {
		if len(ax.Values) == 0 {
			return nil, errf("sweep."+ax.Path, "axis has no values")
		}
		paths[i] = strings.Split(ax.Path, ",")
		for _, p := range paths[i] {
			if strings.TrimSpace(p) == "" {
				return nil, errf("sweep", "axis %q has an empty path", ax.Path)
			}
			if swept[p] {
				return nil, errf("sweep."+ax.Path, "path %q is swept twice (a path may appear in one axis only)", p)
			}
			swept[p] = true
		}
		for j, v := range ax.Values {
			if t, ok := v.([]any); len(paths[i]) > 1 && (!ok || len(t) != len(paths[i])) {
				return nil, errf("sweep."+ax.Path, "value %d must be an array of %d values, one per path", j, len(paths[i]))
			}
		}
		dims[i] = len(ax.Values)
		total *= dims[i]
		if total > maxSweepRuns {
			return nil, errf("sweep", "matrix expands to over %d cells", maxSweepRuns)
		}
	}
	if reps > maxSweepRuns/total {
		return nil, errf("replicates", "%d cells × %d replicates expands to over %d runs", total, reps, maxSweepRuns)
	}

	baseJSON, err := s.Base.JSON()
	if err != nil {
		return nil, errf("base", "cannot serialise base spec: %v", err)
	}
	var baseDoc map[string]any
	if uerr := unmarshalNumbers(baseJSON, &baseDoc); uerr != nil {
		return nil, errf("base", "cannot re-read base spec: %v", uerr)
	}

	var cells []Cell
	idx := make([]int, len(s.Axes))
	for cell := 0; cell < total; cell++ {
		overrides := map[string]any{}
		doc := deepCopy(baseDoc).(map[string]any)
		for i, ax := range s.Axes {
			for j, p := range paths[i] {
				v := ax.Values[idx[i]]
				if len(paths[i]) > 1 {
					v = v.([]any)[j]
				}
				overrides[p] = v
				if serr := setPath(doc, p, deepCopy(v)); serr != nil {
					return nil, serr
				}
			}
		}
		cellJSON, merr := json.Marshal(doc)
		if merr != nil {
			return nil, errf("sweep", "cell %d does not serialise: %v", cell, merr)
		}
		cellSpec, perr := Parse(cellJSON)
		if perr != nil {
			pe, _ := prefixPaths(perr, "sweep(cell "+strconv.Itoa(cell)+").").(*Error)
			return nil, pe
		}
		for rep := 0; rep < reps; rep++ {
			cs := *cellSpec
			if swept["seed"] {
				cs.Seed = DeriveSeed(cs.Seed, 0, rep)
			} else {
				cs.Seed = DeriveSeed(s.Base.Seed, cell, rep)
			}
			cells = append(cells, Cell{Index: cell, Replicate: rep, Spec: cs, Overrides: overrides})
		}
		for i := len(idx) - 1; i >= 0; i-- {
			idx[i]++
			if idx[i] < dims[i] {
				break
			}
			idx[i] = 0
		}
	}
	return cells, nil
}

// setPath assigns v at the dotted path inside a JSON object tree,
// creating intermediate objects as needed. The subsequent strict
// re-Parse of the cell document catches paths that name no spec field.
func setPath(doc map[string]any, path string, v any) *Error {
	parts := strings.Split(path, ".")
	cur := doc
	for i, p := range parts[:len(parts)-1] {
		next, ok := cur[p]
		if !ok || next == nil {
			child := map[string]any{}
			cur[p] = child
			cur = child
			continue
		}
		child, ok := next.(map[string]any)
		if !ok {
			return errf("sweep."+path, "path segment %q is not an object", strings.Join(parts[:i+1], "."))
		}
		cur = child
	}
	cur[parts[len(parts)-1]] = v
	return nil
}

// deepCopy copies the maps and slices of a decoded JSON value, so that an
// axis writing beneath the copy changes this cell's document only — not
// the base document every cell starts from, not the axis value, and not
// the Overrides of the cells that share it.
func deepCopy(v any) any {
	switch t := v.(type) {
	case map[string]any:
		out := make(map[string]any, len(t))
		for k, e := range t {
			out[k] = deepCopy(e)
		}
		return out
	case []any:
		out := make([]any, len(t))
		for i, e := range t {
			out[i] = deepCopy(e)
		}
		return out
	}
	return v
}

// sameExpansion fails the test unless two expansions are the same cells,
// or both refused the sweep with errors at the same field paths.
func sameExpansion(t *testing.T, name string, got []Cell, gerr *Error, want []Cell, werr *Error) {
	t.Helper()
	if gerr != nil || werr != nil {
		if gerr == nil || werr == nil {
			t.Fatalf("%s: Cells error %v, JSON expansion error %v", name, gerr, werr)
		}
		if gp, wp := fieldPaths(t, gerr), fieldPaths(t, werr); !reflect.DeepEqual(gp, wp) {
			t.Fatalf("%s: Cells refuses at %v (%v), the JSON expansion at %v (%v)", name, gp, gerr, wp, werr)
		}
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d cells, the JSON expansion has %d", name, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Index != w.Index || g.Replicate != w.Replicate {
			t.Fatalf("%s: cell %d is (%d, %d), want (%d, %d)", name, i, g.Index, g.Replicate, w.Index, w.Replicate)
		}
		if !reflect.DeepEqual(g.Spec, w.Spec) {
			gj, _ := g.Spec.JSON()
			wj, _ := w.Spec.JSON()
			t.Fatalf("%s: cell %d spec differs\n got %s\nwant %s\n got %#v\nwant %#v", name, i, gj, wj, g.Spec, w.Spec)
		}
		if !reflect.DeepEqual(g.Overrides, w.Overrides) {
			t.Fatalf("%s: cell %d overrides %v, want %v", name, i, g.Overrides, w.Overrides)
		}
	}
}

// sweepDocuments lists the checked-in sweep documents.
func sweepDocuments(tb testing.TB) []string {
	tb.Helper()
	var docs []string
	for _, dir := range []string{"../../examples/sweeps", "../../examples/experiments"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil || len(files) == 0 {
			tb.Fatalf("no documents in %s: %v", dir, err)
		}
		docs = append(docs, files...)
	}
	return docs
}

// TestCellsMatchJSONExpansion: every checked-in sweep expands to the
// cells the JSON expansion gives it.
func TestCellsMatchJSONExpansion(t *testing.T) {
	n := 0
	for _, path := range sweepDocuments(t) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := ParseFile(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if f.Sweep == nil {
			continue
		}
		got, gerr := f.Sweep.Cells()
		want, werr := cellsByJSON(&Sweep{Base: f.Sweep.Base, Axes: f.Sweep.Axes, Replicates: f.Sweep.Replicates})
		sameExpansion(t, path, got, gerr, want, werr)
		n++
	}
	if n < 30 {
		t.Fatalf("compared %d sweep documents, want every checked-in one", n)
	}
}

// TestSweepCellsShareNothing writes through every pointer, slice and map
// reachable from one cell's spec and requires every other cell and the
// base to be unchanged — also where two cells take the same axis value.
func TestSweepCellsShareNothing(t *testing.T) {
	docs := map[string]string{
		"islands": `{"base":{"model":"islands","problem":{"name":"nk","size":16,"seed":3},
		  "engine":{"pop":8,"crossover":{"name":"uniform","params":{"p":0.4}}},
		  "islands":{"demes":3,"migration":{"interval":2},"mode":"parallel","resilience":"default",
		    "faults":[{"kind":"panic","deme":0,"gen":1}]},
		  "budget":{"generations":3,"target":16},"seed":6},
		  "sweep":{"engine.crossover":[{"name":"uniform","params":{"p":0.3}}],
		    "islands.faults":[[{"kind":"panic","deme":1,"gen":2}]],"problem.seed":[5],"budget.target":[15],
		    "seed":[1,2]},"replicates":2}`,
		"islands-base": `{"base":{"model":"islands","problem":{"name":"nk","size":16,"seed":3},
		  "engine":{"pop":8,"crossover":{"name":"uniform","params":{"p":0.4}}},
		  "islands":{"demes":3,"mode":"parallel","resilience":"default","faults":[{"kind":"panic","deme":0,"gen":1}]},
		  "budget":{"generations":3,"target":16},"seed":6},
		  "sweep":{"engine.pop":[8,10]}}`,
		"hga":      `{"base":` + smokeSpecs[ModelHGA] + `,"sweep":{"hga.layers":[[1,3]],"seed":[1,2]}}`,
		"hga-base": `{"base":` + smokeSpecs[ModelHGA] + `,"sweep":{"seed":[1,2]}}`,
		"sim": `{"base":{"model":"sim","problem":{"name":"zdt1","size":5},"sim":{"deme_size":10,"hv_ref":[11,11]},"budget":{"generations":3},"seed":9},
		  "sweep":{"sim.hv_ref":[[12,12]],"seed":[1,2]}}`,
		"sim-base": `{"base":{"model":"sim","problem":{"name":"zdt1","size":5},"sim":{"deme_size":10,"hv_ref":[11,11]},"budget":{"generations":3},"seed":9},
		  "sweep":{"seed":[1,2]}}`,
	}
	reaches := map[string]func(s *RunSpec) bool{
		"Engine.Crossover.Params": func(s *RunSpec) bool { return s.Engine.Crossover != nil && len(s.Engine.Crossover.Params) > 0 },
		"Islands.Faults":          func(s *RunSpec) bool { return s.Islands != nil && len(s.Islands.Faults) > 0 },
		"Problem.Seed":            func(s *RunSpec) bool { return s.Problem.Seed != nil },
		"Budget.Target":           func(s *RunSpec) bool { return s.Budget.Target != nil },
		"HGA.Layers":              func(s *RunSpec) bool { return s.HGA != nil && len(s.HGA.Layers) > 0 },
		"SIM.HVRef":               func(s *RunSpec) bool { return s.SIM != nil && len(s.SIM.HVRef) > 0 },
	}
	reached := map[string]bool{}
	for name, doc := range docs {
		n := len(parseSweep(t, name, doc).cells)
		for i := 0; i < n; i++ {
			sw := parseSweep(t, name, doc) // a fresh expansion per scribbled cell
			before := make([]string, n)
			for j := range sw.cells {
				before[j] = specJSON(t, sw.cells[j].Spec)
			}
			base := specJSON(t, sw.Base)
			for field, reach := range reaches {
				if reach(&sw.cells[i].Spec) {
					reached[field] = true
				}
			}
			c := sw.cells[i]
			scribble(reflect.ValueOf(&sw.cells[i].Spec).Elem(), false)
			if specJSON(t, sw.cells[i].Spec) == before[i] {
				t.Fatalf("%s: writing through cell %d replicate %d changed nothing", name, c.Index, c.Replicate)
			}
			for j, o := range sw.cells {
				if j != i && specJSON(t, o.Spec) != before[j] {
					t.Errorf("%s: writing through cell %d replicate %d changed cell %d replicate %d",
						name, c.Index, c.Replicate, o.Index, o.Replicate)
				}
			}
			if specJSON(t, sw.Base) != base {
				t.Errorf("%s: writing through cell %d replicate %d changed the base", name, c.Index, c.Replicate)
			}
		}
	}
	for field := range reaches {
		if !reached[field] {
			t.Errorf("no cell reaches %s: the documents no longer cover it", field)
		}
	}
}

// specJSON is a spec's JSON form, which follows every pointer.
func specJSON(t *testing.T, s RunSpec) string {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// scribble overwrites every value it reaches through a pointer, a slice
// or a map below v, and adds a key to every map.
func scribble(v reflect.Value, behind bool) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			scribble(v.Elem(), true)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			scribble(v.Field(i), behind)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			scribble(v.Index(i), true)
		}
	case reflect.Map:
		for _, k := range v.MapKeys() {
			e := reflect.New(v.Type().Elem()).Elem()
			e.Set(v.MapIndex(k))
			scribble(e, true)
			v.SetMapIndex(k, e)
		}
		v.SetMapIndex(reflect.ValueOf("scribbled"), reflect.Zero(v.Type().Elem()))
	case reflect.Int, reflect.Int64:
		if behind {
			v.SetInt(v.Int() + 7777)
		}
	case reflect.Uint64:
		if behind {
			v.SetUint(v.Uint() + 7777)
		}
	case reflect.Float64:
		if behind {
			v.SetFloat(v.Float() + 7777)
		}
	case reflect.String:
		if behind {
			v.SetString(v.String() + "!")
		}
	case reflect.Bool:
		if behind {
			v.SetBool(!v.Bool())
		}
	}
}

// sweepGen draws a sweep from fuzz bytes: a valid base, then one to
// three axes — plain, zipped, range or seed — over paths that name
// fields, sections, map keys, unknown fields and fields beneath a
// scalar, with values of every JSON kind.
type sweepGen struct{ data []byte }

func (g *sweepGen) pick(n int) int {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return int(b) % n
}

// genBase is a valid base spec and the paths its cells can validly
// set, each with values that fit it; bits bases also take genBits.
type genBase struct {
	doc   string
	bits  bool
	paths map[string][]string
}

var (
	genCommon = map[string][]string{
		"seed":                  {"1", "2", "77"},
		"replicates":            {"0", "1"},
		"engine.pop":            {"6", "8", "12"},
		"engine.crossover_rate": {"0.5", "0.9"},
		"problem.seed":          {"3", "4", "null"},
		"budget.generations":    {"2", "3"},
		"budget.target":         {"16", "10", "null"},
	}
	genBits = map[string][]string{
		"engine":                    {`{"pop":6}`, `{"pop":8,"crossover":{"name":"uniform","params":{"p":0.2}}}`, `{}`, `null`},
		"engine.elitism":            {"1", "2", "-1"},
		"engine.selector":           {`{"name":"tournament","params":{"k":3}}`, `{"name":"rank"}`},
		"engine.crossover":          {`{"name":"uniform","params":{"p":0.3}}`, `{"name":"onepoint"}`, `null`},
		"engine.crossover.name":     {`"uniform"`, `"twopoint"`},
		"engine.crossover.params":   {`{"p":0.2}`, `{}`},
		"engine.crossover.params.p": {"0.1", "0.7"},
		"problem":                   {`{"name":"onemax","size":16}`, `{"name":"trap","size":20}`},
		"problem.name":              {`"onemax"`, `"trap"`},
		"problem.size":              {"16", "20"},
	}
	genBases = []genBase{
		{smokeSpecs[ModelGenerational], true, map[string][]string{"model": {`"generational"`, `"steadystate"`}}},
		{`{"model":"generational","problem":{"name":"onemax","size":16},"budget":{"generations":3},"seed":4,
		  "engine":{"pop":10,"elitism":0,"crossover":{"name":"uniform","params":{"p":0}}}}`, true, nil},
		{`{"model":"cellular","problem":{"name":"onemax","size":16},"budget":{"generations":4},"seed":5,
		  "engine":{"grid":{"rows":3,"cols":3},"mutator":{"name":"bitflip","params":{}}}}`, true, map[string][]string{
			"engine.grid":      {`{"rows":3,"cols":3}`, `{"rows":2,"cols":5,"update":"ls"}`},
			"engine.grid.rows": {"2", "4"},
		}},
		{smokeSpecs[ModelMasterSlave], true, map[string][]string{"farm": {`{"workers":2}`, `{}`}, "farm.workers": {"1", "3"}}},
		{smokeSpecs[ModelHGA], false, map[string][]string{
			"hga":          {`{"layers":[1,2]}`, `{"layers":[1,1],"interval":3}`},
			"hga.layers":   {"[1,2]", "[1,3]"},
			"problem.name": {`"sphere"`, `"rastrigin"`},
		}},
		{`{"model":"sim","problem":{"name":"zdt1","size":5},"sim":{"deme_size":10,"hv_ref":[]},"budget":{"generations":3},"seed":9}`, false, map[string][]string{
			"sim.hv_ref": {"[11,11]", "[12,12]"}, "sim.deme_size": {"8", "12"},
			"problem.name": {`"zdt1"`, `"schaffer"`},
		}},
		{`{"model":"islands","problem":{"name":"nk","size":16,"seed":3},
		  "engine":{"pop":8,"crossover":{"name":"uniform","params":{"p":0.4}}},
		  "islands":{"demes":2,"topology":{"kind":"torus","rows":1,"cols":2},"migration":{"interval":2},
		    "mode":"parallel","resilience":"default","faults":[{"kind":"panic","deme":0,"gen":1}]},
		  "budget":{"generations":3,"target":16},"seed":6}`, true, map[string][]string{
			"engine.type":                {`"generational"`, `"steadystate"`},
			"islands":                    {`{"demes":2,"migration":{"interval":1}}`, `{"demes":4,"topology":"ring"}`, `{"demes":2,"topology":{"kind":"torus","rows":1,"cols":2}}`},
			"islands.demes":              {"2", "4"},
			"islands.topology":           {`"ring"`, `{"kind":"complete"}`, `{"kind":"torus","rows":1,"cols":2}`},
			"islands.topology.kind":      {`"ring"`, `"complete"`},
			"islands.topology.rows":      {"1"},
			"islands.migration":          {`{"interval":3}`, `{"interval":1,"select":"random"}`},
			"islands.migration.interval": {"1", "3"},
			"islands.faults":             {"[]", `[{"kind":"panic","deme":1,"gen":2}]`},
			"problem.name":               {`"nk"`},
		}},
	}
	// genOdd are paths no base sets validly: unknown fields, fields
	// beneath a scalar, sections of another model.
	genOdd     = []string{"engine.popsize", "seed.low", "engine.pop.x", "engine.crossover.params.p.q", "islands.faults.x", "hga", "farm.workers", "islands.demes"}
	genKeys    = []string{"pop", "name", "kind", "interval", "rows", "cols", "demes", "params", "p", "size", "seed", "deme", "gen", "topology", "migration", "bogus", "Pop", "Kind"}
	genNumbers = []string{"0", "1", "2", "3", "4", "8", "16", "-1", "0.5", "2.5e1", "18446744073709551615", "1e400"}
	genStrings = []string{"ring", "torus", "generational", "islands", "tournament", "uniform", "onemax", "panic", "x", ""}
)

// path draws a path for base b and a value generator for it.
func (g *sweepGen) path(b genBase) string {
	var names []string
	for _, m := range []map[string][]string{genCommon, b.paths} {
		for p := range m {
			names = append(names, p)
		}
	}
	if b.bits {
		for p := range genBits {
			names = append(names, p)
		}
	}
	if g.pick(8) == 0 {
		names = genOdd
	}
	sort.Strings(names)
	return names[g.pick(len(names))]
}

// valueFor draws a value for path p: mostly one that fits it, else one
// of any JSON kind.
func (g *sweepGen) valueFor(b genBase, p string) any {
	fits := b.paths[p]
	if fits == nil {
		fits = genCommon[p]
	}
	if fits == nil && b.bits {
		fits = genBits[p]
	}
	if len(fits) == 0 || g.pick(6) == 0 {
		return g.value(0)
	}
	var v any
	if err := unmarshalNumbers([]byte(fits[g.pick(len(fits))]), &v); err != nil {
		panic(err)
	}
	return v
}

func (g *sweepGen) value(depth int) any {
	kinds := 8
	if depth >= 2 {
		kinds = 5
	}
	switch g.pick(kinds) {
	case 0:
		return nil
	case 1:
		return g.pick(2) == 1
	case 2, 3:
		return json.Number(genNumbers[g.pick(len(genNumbers))])
	case 4:
		return genStrings[g.pick(len(genStrings))]
	case 5:
		arr := []any{}
		for n := g.pick(3); n > 0; n-- {
			arr = append(arr, g.value(depth+1))
		}
		return arr
	default:
		obj := map[string]any{}
		for n := g.pick(4); n > 0; n-- {
			obj[genKeys[g.pick(len(genKeys))]] = g.value(depth + 1)
		}
		return obj
	}
}

// sweep returns the generated sweep, or false when its axes are refused
// before expansion (both expansions share that step).
func (g *sweepGen) sweep(t *testing.T) (*Sweep, bool) {
	b := genBases[g.pick(len(genBases))]
	base, err := Parse([]byte(b.doc))
	if err != nil {
		t.Fatal(err)
	}
	axes := map[string]any{}
	for n := 1 + g.pick(3); n > 0; n-- {
		switch g.pick(5) {
		case 0: // range
			froms := []float64{0, 1, 2, 0.5}
			steps := []float64{1, 2, 0.5, 0.25}
			from := froms[g.pick(len(froms))]
			axes[g.path(b)] = map[string]any{
				"from": from, "to": from + float64(g.pick(4)), "step": steps[g.pick(len(steps))]}
		case 1: // seed
			var vals []any
			for k := 1 + g.pick(3); k > 0; k-- {
				vals = append(vals, g.valueFor(b, "seed"))
			}
			axes["seed"] = vals
		case 2: // zipped
			p, q := g.path(b), g.path(b)
			var vals []any
			for k := 1 + g.pick(3); k > 0; k-- {
				if g.pick(8) == 0 {
					vals = append(vals, g.value(0)) // a malformed tuple, mostly
				} else {
					vals = append(vals, []any{g.valueFor(b, p), g.valueFor(b, q)})
				}
			}
			axes[p+","+q] = vals
		default:
			p := g.path(b)
			var vals []any
			for k := 1 + g.pick(3); k > 0; k-- {
				vals = append(vals, g.valueFor(b, p))
			}
			axes[p] = vals
		}
	}
	sw := &Sweep{Base: *base, Replicates: g.pick(3)}
	keys := make([]string, 0, len(axes))
	for k := range axes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		raw, err := json.Marshal(axes[k])
		if err != nil {
			t.Fatal(err)
		}
		values, aerr := parseAxisValues(k, raw)
		if aerr != nil {
			return nil, false
		}
		sw.Axes = append(sw.Axes, Axis{Path: k, Values: values})
	}
	return sw, true
}

// FuzzSweepExpansion: Sweep.Cells and the JSON expansion agree on every
// generated sweep, in every cell, or in the field paths of the error
// they refuse it with.
func FuzzSweepExpansion(f *testing.F) {
	for _, seed := range []string{
		"\x00\x00\x03\x04\x02",
		"\x05\x02\x02\x1a\x05\x00\x03",
		"\x05\x01\x03\x11\x12\x06\x02\x00\x07\x01\x08\x02\x04\x03",
		"\x02\x01\x00\x03\x01\x00\x02\x04\x00\x01",
		"\x05\x00\x03\x13\x07\x02\x01\x0e\x07\x01\x01\x05\x02\x1b\x06\x03\x00",
		"\x00\x01\x03\x24\x02\x06\x02\x02\x02\x01",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &sweepGen{data: data}
		sw, ok := g.sweep(t)
		if !ok {
			return
		}
		// Each expansion gets its own axis values, so that one writing
		// into them shows as overrides the other does not have.
		ref := &Sweep{Base: sw.Base, Replicates: sw.Replicates}
		for _, ax := range sw.Axes {
			ref.Axes = append(ref.Axes, Axis{Path: ax.Path, Values: deepCopy(ax.Values).([]any)})
		}
		want, werr := cellsByJSON(ref)
		got, gerr := sw.Cells()
		sameExpansion(t, "generated sweep", got, gerr, want, werr)
	})
}

// BenchmarkParseFile times ParseFile on each checked-in sweep document —
// decoding, base validation, expansion and every cell's validation —
// and reports the time per expanded cell.
func BenchmarkParseFile(b *testing.B) {
	for _, path := range sweepDocuments(b) {
		data, err := os.ReadFile(path)
		if err != nil {
			b.Fatal(err)
		}
		name := filepath.Base(filepath.Dir(path)) + "/" + strings.TrimSuffix(filepath.Base(path), ".json")
		b.Run(name, func(b *testing.B) {
			cells := 0
			for i := 0; i < b.N; i++ {
				f, err := ParseFile(data)
				if err != nil {
					b.Fatal(err)
				}
				if f.Sweep == nil {
					b.Skip("not a sweep document")
				}
				cells = len(f.Sweep.cells)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cells), "ns/cell")
		})
	}
}

// BenchmarkBuild builds the cells of every checked-in sweep document in
// turn, one cell per op: ns/op and allocs/op are per cell. It is the
// run-side counterpart of BenchmarkParseFile, and its figure includes
// the one construction of each cell's problem.
func BenchmarkBuild(b *testing.B) {
	for _, path := range sweepDocuments(b) {
		data, err := os.ReadFile(path)
		if err != nil {
			b.Fatal(err)
		}
		name := filepath.Base(filepath.Dir(path)) + "/" + strings.TrimSuffix(filepath.Base(path), ".json")
		b.Run(name, func(b *testing.B) {
			f, err := ParseFile(data)
			if err != nil {
				b.Fatal(err)
			}
			if f.Sweep == nil {
				b.Skip("not a sweep document")
			}
			cells := f.Sweep.cells
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Build(cells[i%len(cells)].Spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
