package exp

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"pga/internal/spec"
)

// TestDocumentsParse: every checked-in experiment document is a sweep
// that spec.ParseFile accepts and that sweeps "seed", the axis a table
// row's runs differ in.
func TestDocumentsParse(t *testing.T) {
	files, err := filepath.Glob("../../examples/experiments/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no experiment documents found (%v)", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := spec.ParseFile(data)
		if err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		if doc.Sweep == nil {
			t.Errorf("%s is not a sweep document", f)
			continue
		}
		if !slices.ContainsFunc(doc.Sweep.Axes, func(ax spec.Axis) bool { return ax.Path == "seed" }) {
			t.Errorf("%s does not sweep seed", f)
		}
	}
}

// TestGroupSeedNotFastest: E09.json's "sim.scenario" axis sorts after
// "seed", and its reports still group into one row per scenario, each
// holding that scenario's runs in seed order.
func TestGroupSeedNotFastest(t *testing.T) {
	sw := mustParse("E09.json")
	cells, err := sw.Cells()
	if err != nil {
		t.Fatal(err)
	}
	reports := make([]*spec.Report, len(cells))
	for i, c := range cells {
		reports[i] = &spec.Report{Cell: c.Index, Seed: c.Spec.Seed}
	}
	g := group(sw, cells, reports)
	if len(g) != 7 {
		t.Fatalf("%d rows, want 7", len(g))
	}
	for i, r := range g {
		if len(r.reports) != 10 {
			t.Errorf("row %d has %d reports, want 10", i, len(r.reports))
		}
		for j, rep := range r.reports {
			c := cells[rep.Cell].Spec
			if c.SIM.Scenario != i+1 || c.SIM.Scenario != r.spec.SIM.Scenario {
				t.Errorf("row %d (scenario %d) holds a scenario %d run", i, r.spec.SIM.Scenario, c.SIM.Scenario)
			}
			if want := 3 + 17*uint64(j); rep.Seed != want {
				t.Errorf("row %d run %d has seed %d, want %d", i, j, rep.Seed, want)
			}
		}
	}
}

// TestDocumentsReferenced: every document belongs to exactly one
// registered experiment, and every document an experiment names exists.
func TestDocumentsReferenced(t *testing.T) {
	owner := map[string]string{}
	for id, docs := range documents {
		if _, ok := Lookup(id); !ok {
			t.Errorf("documents of unregistered experiment %s", id)
		}
		for _, d := range docs {
			if prev, dup := owner[d]; dup {
				t.Errorf("%s is referenced by %s and %s", d, prev, id)
			}
			owner[d] = id
			if _, err := os.Stat(filepath.Join("../../examples/experiments", d)); err != nil {
				t.Errorf("%s names a missing document: %v", id, err)
			}
		}
	}
	files, _ := filepath.Glob("../../examples/experiments/*.json")
	for _, f := range files {
		if _, ok := owner[filepath.Base(f)]; !ok {
			t.Errorf("%s is referenced by no experiment", f)
		}
	}
}

// TestQuickSweep: the quick rule keeps the first two seeds and caps the
// generations at 60, on a copy — the parsed document is untouched.
func TestQuickSweep(t *testing.T) {
	sw := mustParse("E03.json")
	seeds := len(sw.Axes[len(sw.Axes)-1].Values)
	q := quickSweep(sw)
	if got := q.Axes[len(q.Axes)-1].Values; len(got) != 2 || got[0] != sw.Axes[len(sw.Axes)-1].Values[0] {
		t.Errorf("quick seeds %v, want the first two", got)
	}
	if q.Base.Budget.Generations != 60 {
		t.Errorf("quick generations %d, want 60", q.Base.Budget.Generations)
	}
	if len(sw.Axes[len(sw.Axes)-1].Values) != seeds || sw.Base.Budget.Generations != 400 {
		t.Error("quickSweep changed the parsed document")
	}
}
