package spec

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pga/internal/operators"
)

// sweepsDir holds the sweep documents; its golden/ directory holds the
// result of every document whose bytes are pinned, as X.result.json
// next to the document X.json.
const sweepsDir = "../../examples/sweeps"

// recordedFiles returns the recorded result files and the documents they
// were produced from.
func recordedFiles(t *testing.T) (results, docs []string) {
	t.Helper()
	results, err := filepath.Glob(filepath.Join(sweepsDir, "golden", "*.result.json"))
	if err != nil || len(results) == 0 {
		t.Fatalf("no recorded results under %s/golden (err %v)", sweepsDir, err)
	}
	for _, r := range results {
		docs = append(docs, filepath.Join(sweepsDir, strings.TrimSuffix(filepath.Base(r), ".result.json")+".json"))
	}
	return results, docs
}

// readSweep reads and parses one sweep document.
func readSweep(t *testing.T, path string) *Sweep {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("recorded result has no document: %v", err)
	}
	return parseSweep(t, path, string(data))
}

// TestRecordedResults replays every sweep document with a recorded
// result and requires its exact bytes: Sweep.Run's reports marshalled
// with two-space indent plus a newline. The trace is recorded
// (RunOpts.Trace) exactly when the recorded reports carry one: the five
// trace-* files are Sweep.Run with RunOpts.Trace, which pgarun has no
// switch for; every other file is also what pgarun -out writes. Each
// result was recorded by the parent of the change that added it; a
// failure means the change altered what a seeded run draws or reports.
// Never re-record a file to make a change pass.
func TestRecordedResults(t *testing.T) {
	results, docs := recordedFiles(t)
	for i, result := range results {
		t.Run(strings.TrimSuffix(filepath.Base(result), ".result.json"), func(t *testing.T) {
			want, err := os.ReadFile(result)
			if err != nil {
				t.Fatal(err)
			}
			var recorded []struct {
				Trace json.RawMessage `json:"trace"`
			}
			if err := json.Unmarshal(want, &recorded); err != nil || len(recorded) == 0 {
				t.Fatalf("%s: not a list of reports (err %v)", result, err)
			}
			reports, err := readSweep(t, docs[i]).Run(RunOpts{Trace: recorded[0].Trace != nil})
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(reports, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			if !bytes.Equal(got, want) {
				t.Errorf("%s no longer reproduces %s: %s", docs[i], result, firstDiff(got, want))
			}
		})
	}
}

// firstDiff names the first line where got and want differ.
func firstDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return "line " + strconv.Itoa(i+1) + ": got " + strings.TrimSpace(g[i]) + ", want " + strings.TrimSpace(w[i])
		}
	}
	return "got " + strconv.Itoa(len(g)) + " lines, want " + strconv.Itoa(len(w))
}

// TestRegisteredOperatorsHaveGoldenScenario: every registered operator
// runs in at least one cell with a recorded result — the cell's named
// selector, crossover and mutator, or the class default
// operators.Canonical gives an empty crossover or mutator slot. Best is
// the exception: a draw-free selector used as the control arm of the
// takeover experiments, which no recorded sweep runs.
func TestRegisteredOperatorsHaveGoldenScenario(t *testing.T) {
	unpinned := map[string]bool{"Best": true}
	pinned := map[string]bool{}
	_, docs := recordedFiles(t)
	for _, doc := range docs {
		cells, cerr := readSweep(t, doc).Cells()
		if cerr != nil {
			t.Fatal(cerr)
		}
		for _, c := range cells {
			p, err := Resolve(c.Spec)
			if err != nil {
				t.Fatalf("%s cell %d: %v", doc, c.Index, err)
			}
			for _, op := range []any{p.sel, p.xover, p.mut} {
				if op != nil {
					pinned[operators.OperatorTypeName(op)] = true
				}
			}
		}
	}
	for _, op := range operators.RegisteredOperators() {
		name := operators.OperatorTypeName(op)
		switch {
		case !pinned[name] && !unpinned[name]:
			t.Errorf("operator %s runs in no recorded sweep cell", name)
		case pinned[name] && unpinned[name]:
			t.Errorf("operator %s runs in a recorded sweep cell now: drop it from the allowlist", name)
		}
	}
}

// runMode names the runtime a resolved cell drives: its model, and for
// islands the discipline too.
func runMode(p *Plan) string {
	if p.model.name != ModelIslands {
		return p.model.name
	}
	switch {
	case !p.parallel:
		return ModelIslands + "/sequential"
	case !p.deme.Policy.Sync:
		return ModelIslands + "/async"
	case p.resilience != nil:
		return ModelIslands + "/supervised"
	}
	return ModelIslands + "/sync-parallel"
}

// TestEveryModelHasGoldenScenario: every spec model, and every island
// discipline whose bytes are reproducible, runs in at least one cell
// with a recorded result. Async islands are exempt: goroutine
// interleaving decides which batch a deme drains, so they have no bytes
// to pin until they run on a modelled clock (ROADMAP item 10); the same
// holds for wire islands (pgaisland), which no spec document runs.
func TestEveryModelHasGoldenScenario(t *testing.T) {
	exempt := map[string]bool{ModelIslands + "/async": true}
	var want []string
	for _, m := range Models() {
		if m != ModelIslands {
			want = append(want, m)
		}
	}
	for _, m := range []string{"sequential", "sync-parallel", "supervised"} {
		want = append(want, ModelIslands+"/"+m)
	}
	pinned := map[string]bool{}
	_, docs := recordedFiles(t)
	for _, doc := range docs {
		cells, cerr := readSweep(t, doc).Cells()
		if cerr != nil {
			t.Fatal(cerr)
		}
		for _, c := range cells {
			p, err := Resolve(c.Spec)
			if err != nil {
				t.Fatalf("%s cell %d: %v", doc, c.Index, err)
			}
			mode := runMode(p)
			if exempt[mode] {
				t.Errorf("%s cell %d runs %s, which has no reproducible bytes to record", doc, c.Index, mode)
			}
			pinned[mode] = true
		}
	}
	for _, m := range want {
		if !pinned[m] {
			t.Errorf("%s runs in no recorded sweep cell", m)
		}
	}
}
