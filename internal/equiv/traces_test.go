package equiv

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"pga/internal/core"
	"pga/internal/ga"
	"pga/internal/operators"
	"pga/internal/problems"
	"pga/internal/rng"
)

var update = flag.Bool("update", false, "rewrite testdata golden traces")

const goldenFile = "golden_traces.json"

// TestGoldenTraces regenerates every scenario and compares it
// bit-for-bit against the pinned golden trajectory. The golden file was
// captured from the allocating implementation before the zero-allocation
// rework; regenerate (only when a trajectory change is intended and
// reviewed) with:
//
//	go test -run TestGoldenTraces -update ./internal/equiv
func TestGoldenTraces(t *testing.T) {
	got := map[string]Trace{}
	for _, sc := range Scenarios() {
		if _, dup := got[sc.Name]; dup {
			t.Fatalf("%s: duplicate scenario name", sc.Name)
		}
		got[sc.Name] = sc.Run()
	}

	path := filepath.Join("testdata", goldenFile)
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, '\n')
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden traces (run with -update to create): %v", err)
	}
	var want map[string]Trace
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse golden traces: %v", err)
	}

	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: scenario pinned in golden file but not generated", name)
			continue
		}
		if len(g.Best) != len(w.Best) {
			t.Errorf("%s: trace length %d, want %d", name, len(g.Best), len(w.Best))
			continue
		}
		for i := range w.Best {
			if g.Best[i] != w.Best[i] {
				t.Errorf("%s: generation %d best = %v, want %v (trajectory diverged)", name, i, g.Best[i], w.Best[i])
				break
			}
		}
		if g.Evaluations != w.Evaluations {
			t.Errorf("%s: evaluations = %d, want %d", name, g.Evaluations, w.Evaluations)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: scenario not pinned in golden file (run with -update)", name)
		}
	}
}

// TestScenarioOpsAreRegistered guards the coverage claims: every
// operator name a scenario claims to exercise must exist in the operator
// registry, so they cannot rot through renames.
func TestScenarioOpsAreRegistered(t *testing.T) {
	known := map[string]bool{}
	for _, op := range operators.RegisteredOperators() {
		known[operators.OperatorTypeName(op)] = true
	}
	for _, sc := range Scenarios() {
		if len(sc.Ops) == 0 {
			t.Errorf("%s: scenario lists no operators", sc.Name)
		}
		for _, op := range sc.Ops {
			if !known[op] {
				t.Errorf("%s: claims unregistered operator %q", sc.Name, op)
			}
		}
	}
}

// TestRegisteredOperatorsHaveGoldenScenario is the other direction: every
// registered operator is exercised by at least one pinned trajectory.
// Best and Random are the exceptions — draw-free and one-Intn selectors
// used as the control arms of the takeover experiments, which no engine
// scenario runs.
func TestRegisteredOperatorsHaveGoldenScenario(t *testing.T) {
	unpinned := map[string]bool{"Best": true, "Random": true}
	pinned := map[string]bool{}
	for _, sc := range Scenarios() {
		for _, op := range sc.Ops {
			pinned[op] = true
		}
	}
	for _, op := range operators.RegisteredOperators() {
		name := operators.OperatorTypeName(op)
		switch {
		case !pinned[name] && !unpinned[name]:
			t.Errorf("operator %s is exercised by no golden scenario", name)
		case pinned[name] && unpinned[name]:
			t.Errorf("operator %s has a golden scenario now: drop it from the allowlist", name)
		}
	}
}

// TestStepDeterminism double-checks the cheap invariant directly: two
// engines built from the same seed stay identical step by step.
func TestStepDeterminism(t *testing.T) {
	build := func() ga.Engine {
		return ga.NewGenerational(ga.Config{
			Problem: problems.OneMax{N: 64}, PopSize: 30,
			Selector:  operators.Tournament{K: 2},
			Crossover: operators.Uniform{}, Mutator: operators.BitFlip{},
			RNG: rng.New(99),
		})
	}
	a, b := build(), build()
	for g := 0; g < 10; g++ {
		a.Step()
		b.Step()
		fa := a.Population().BestFitness(core.Maximize)
		fb := b.Population().BestFitness(core.Maximize)
		if fa != fb {
			t.Fatalf("generation %d: diverged (%v vs %v)", g, fa, fb)
		}
	}
}
