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
// (MaxSAT clause tables, NK contribution tables), so validation
// constructs none — Parse and ParseFile check a spec against what the
// registry row declares — and a run constructs its problem once: one
// construction for Resolve or Build, one for the whole of pgarun's flag
// path (Resolve, StopAtOptimum, Build, Run), and for a sweep document one
// per run and none to expand. The validate/build pair this replaced
// constructed 4–6 times per flag run and ≈ 5 per sweep cell, and the
// resolve pass after it twice per sweep cell. Sim's multi-objective
// problems are outside the registry; TestSimConstructsProblemOnce in
// internal/spec counts them the same way.
func TestSpecConstructsProblemOnce(t *testing.T) {
	var made atomic.Int64 // a sweep's cells are built on Sweep.Run's worker goroutines
	problems.Registry["counted"] = problems.Spec{Key: "counted", MinSize: 1, Genome: "bits", Optimum: true,
		Make: func(size int, _ uint64) core.Problem { made.Add(1); return problems.OneMax{N: size} }}
	problems.Registry["counted-real"] = problems.Spec{Key: "counted-real", MinSize: 1, Genome: "real",
		Optimum: true, RealFunc: true,
		Make: func(size int, _ uint64) core.Problem { made.Add(1); return problems.Sphere(size) }}
	defer delete(problems.Registry, "counted")
	defer delete(problems.Registry, "counted-real")
	count := func(what string, want int, f func()) {
		t.Helper()
		made.Store(0)
		if f(); made.Load() != int64(want) {
			t.Errorf("%s constructed the problem %d times, want %d", what, made.Load(), want)
		}
	}

	for _, s := range []spec.RunSpec{
		{Model: spec.ModelGenerational, Problem: spec.ProblemSpec{Name: "counted", Size: 16},
			Engine: spec.EngineSpec{Pop: 6}, Budget: spec.BudgetSpec{Generations: 2, TargetOptimum: true}, Seed: 1},
		{Model: spec.ModelHGA, Problem: spec.ProblemSpec{Name: "counted-real", Size: 2},
			Engine: spec.EngineSpec{Pop: 6}, HGA: &spec.HGASpec{Layers: []int{1, 2}},
			Budget: spec.BudgetSpec{Generations: 2, TargetOptimum: true}, Seed: 1},
	} {
		doc, _ := s.JSON()
		count(s.Model+": Resolve", 1, func() { _, _ = spec.Resolve(s) })
		count(s.Model+": Parse", 0, func() {
			if _, err := spec.Parse(doc); err != nil {
				t.Fatal(err)
			}
		})
		count(s.Model+": Build+Run", 1, func() {
			if b, err := spec.Build(s); err == nil {
				b.Run(spec.RunOpts{})
			}
		})
		count(s.Model+": the pgarun flag path", 1, func() {
			s := s
			s.Budget.TargetOptimum = false
			plan, err := spec.Resolve(s)
			if err != nil {
				t.Fatal(err)
			}
			if !plan.StopAtOptimum() {
				t.Errorf("%s: the problem has a known optimum and the model stops at it", s.Model)
			}
			plan.Build().Run(spec.RunOpts{})
		})

		sweep := []byte(`{"base":` + string(doc) + `,"sweep":{"engine.pop":[4,6,8]}}`)
		var f *spec.File
		count(s.Model+": ParseFile of a 3-cell sweep", 0, func() {
			var err error
			if f, err = spec.ParseFile(sweep); err != nil {
				t.Fatal(err)
			}
		})
		count(s.Model+": running the parsed sweep", 3, func() {
			if _, err := f.Sweep.Cells(); err != nil { // the expansion ParseFile kept
				t.Fatal(err)
			}
			if _, err := f.Sweep.Run(spec.RunOpts{}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
