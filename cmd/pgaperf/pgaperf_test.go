package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
)

// benchmarkJSON is BENCHMARK.json's schema.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames checks the declared vocabulary: well-formed names and
// units, and no name used twice.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, def := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(def.Name) {
			t.Errorf("metric name %q is malformed", def.Name)
		}
		if !unitRE.MatchString(def.Unit) {
			t.Errorf("metric %s: unit %q is malformed", def.Name, def.Unit)
		}
		if def.Better != "higher" && def.Better != "lower" {
			t.Errorf("metric %s: better is %q", def.Name, def.Better)
		}
		if seen[def.Name] {
			t.Errorf("metric %s declared twice", def.Name)
		}
		seen[def.Name] = true
		for _, wl := range def.On {
			if _, ok := workloadWhy[wl]; !ok {
				t.Errorf("metric %s is defined on unknown workload %q", def.Name, wl)
			}
		}
	}
	for _, wl := range workloadNames {
		if !nameRE.MatchString(wl) {
			t.Errorf("workload name %q is malformed", wl)
		}
	}
}

// TestBenchmarkJSONMatchesHarness checks that BENCHMARK.json names the
// harness's workloads and exactly its universal metrics — the ones
// defined on every workload, which is what a driver can ask of each —
// with the harness's units, directions and bounds.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}

	var got []string
	for _, w := range b.Workloads {
		got = append(got, w.Name)
		if w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %s: why differs from the harness's", w.Name)
		}
	}
	if !slices.Equal(got, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", got, workloadNames)
	}

	type row struct {
		unit, better string
		bound        float64
	}
	want := func(defs []metricDef) map[string]row {
		m := map[string]row{}
		for _, d := range defs {
			if d.universal() {
				m[d.Name] = row{d.Unit, d.Better, d.Bound}
			}
		}
		return m
	}
	e2e := map[string]row{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = row{m.Unit, m.Better, m.Bound}
	}
	layers := map[string]row{}
	for _, m := range b.PerLayer {
		layers[m.Name] = row{m.Unit, m.Better, 0}
	}
	for kind, pair := range map[string][2]map[string]row{
		"end_to_end": {e2e, want(endToEnd)},
		"per_layer":  {layers, want(perLayer)},
	} {
		for name, w := range pair[1] {
			if g, ok := pair[0][name]; !ok {
				t.Errorf("BENCHMARK.json %s lacks %s", kind, name)
			} else if g != w {
				t.Errorf("BENCHMARK.json %s %s is %+v, harness declares %+v", kind, name, g, w)
			}
		}
		for name := range pair[0] {
			if _, ok := pair[1][name]; !ok {
				t.Errorf("BENCHMARK.json %s names %s, which the harness does not emit on every workload", kind, name)
			}
		}
	}
}

// TestSmoke runs every workload end to end at a tiny size — real
// binaries, correctness gate, traced pass, probes — and checks that
// every declared metric comes out exactly once on each workload it is
// defined on and nowhere else.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries")
	}
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	res, err := run(config{
		workloads: workloadNames, seed: 7, reps: 2, untraced: true, traced: true,
		dir: t.TempDir(), spans: spans, sz: smokeSizes,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != len(workloadNames) {
		t.Fatalf("%d workload results, want %d", len(res.Workloads), len(workloadNames))
	}
	for _, w := range res.Workloads {
		if w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.Name, w.Failed, w.Attempted, w.Failures)
		}
		var gotE2E, gotLayers []string
		for name, s := range w.EndToEnd {
			gotE2E = append(gotE2E, name)
			if s.N == 0 {
				t.Errorf("%s: %s has no samples", w.Name, name)
			}
		}
		for name := range w.PerLayer {
			gotLayers = append(gotLayers, name)
		}
		if want := definedOn(endToEnd, w.Name, smokeSizes); !slices.Equal(sorted(gotE2E), want) {
			t.Errorf("%s end-to-end metrics:\n got %v\nwant %v", w.Name, sorted(gotE2E), want)
		}
		if want := definedOn(perLayer, w.Name, smokeSizes); !slices.Equal(sorted(gotLayers), want) {
			t.Errorf("%s per-layer metrics:\n got %v\nwant %v", w.Name, sorted(gotLayers), want)
		}
		for _, layers := range []bool{false, true} {
			if _, err := driverLine(w, layers); err != nil {
				t.Errorf("%s: driver line: %v", w.Name, err)
			}
		}
	}
	if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
		t.Errorf("no spans written: %v", err)
	}
}

// definedOn lists, sorted, the metrics of defs that apply to wl. At
// smoke sizes bitwise-gen stops long before its optimum, so it has no
// evals_to_target.
func definedOn(defs []metricDef, wl string, sz sizes) []string {
	var out []string
	for _, d := range defs {
		if d.definedOn(wl) && (sz.full || d.Name != "evals_to_target") {
			out = append(out, d.Name)
		}
	}
	return sorted(out)
}

func sorted(s []string) []string {
	slices.Sort(s)
	return s
}
