package exp

import (
	"os"
	"path/filepath"
	"testing"

	"pga/internal/spec"
)

// TestDocumentsParse: every checked-in experiment document is a sweep
// that spec.ParseFile accepts, with "seed" as its fastest axis so that
// consecutive reports form one table row.
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
		if axes := doc.Sweep.Axes; axes[len(axes)-1].Path != "seed" {
			t.Errorf("%s: fastest axis is %q, want seed", f, axes[len(axes)-1].Path)
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
