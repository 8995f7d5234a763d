package problems_test

import (
	"sync/atomic"
	"testing"

	"pga/internal/core"
	"pga/internal/problems"
	"pga/internal/spec"
)

// TestSpecConstructsProblemOnce counts how often the spec layer calls a
// registry entry's Make. Constructing a problem compiles its kernel
// (MaxSAT clause tables, NK contribution tables), so the resolve pass is
// meant to do it once and hand the instance on: one construction for
// Parse, Validate or Build, one for the whole of pgarun's flag path
// (Resolve, StopAtOptimum, Build, Run), and for a sweep document one per
// cell to expand plus one per run — where the validate/build pair it
// replaced constructed 4–6 times per flag run and ≈ 5 per sweep cell.
func TestSpecConstructsProblemOnce(t *testing.T) {
	var made atomic.Int64 // a sweep's cells are built on Sweep.Run's worker goroutines
	problems.Registry["counted"] = problems.Spec{Key: "counted", MinSize: 1,
		Make: func(size int, _ uint64) core.Problem { made.Add(1); return problems.OneMax{N: size} }}
	defer delete(problems.Registry, "counted")
	count := func(what string, want int, f func()) {
		t.Helper()
		made.Store(0)
		if f(); made.Load() != int64(want) {
			t.Errorf("%s constructed the problem %d times, want %d", what, made.Load(), want)
		}
	}

	s := spec.RunSpec{Model: spec.ModelGenerational, Problem: spec.ProblemSpec{Name: "counted", Size: 16},
		Engine: spec.EngineSpec{Pop: 6}, Budget: spec.BudgetSpec{Generations: 2, TargetOptimum: true}, Seed: 1}
	doc, _ := s.JSON()
	count("Validate", 1, func() { _ = s.Validate() })
	count("Parse", 1, func() { _, _ = spec.Parse(doc) })
	count("Build+Run", 1, func() {
		if b, err := spec.Build(s); err == nil {
			b.Run(spec.RunOpts{})
		}
	})
	count("the pgarun flag path", 1, func() {
		s.Budget.TargetOptimum = false
		plan, err := spec.Resolve(s)
		if err != nil {
			t.Fatal(err)
		}
		if !plan.StopAtOptimum() {
			t.Error("OneMax has a known optimum and the generational model stops at it")
		}
		plan.Build().Run(spec.RunOpts{})
	})

	sweep := []byte(`{"base":` + string(doc) + `,"sweep":{"engine.pop":[4,6,8]}}`)
	var f *spec.File
	count("ParseFile of a 3-cell sweep", 1+3, func() { // the base, then each cell
		var err error
		if f, err = spec.ParseFile(sweep); err != nil {
			t.Fatal(err)
		}
	})
	count("running the parsed sweep", 3, func() {
		if _, err := f.Sweep.Cells(); err != nil { // the expansion ParseFile kept
			t.Fatal(err)
		}
		if _, err := f.Sweep.Run(spec.RunOpts{}); err != nil {
			t.Fatal(err)
		}
	})
}
