package exp

import (
	"io"

	"pga/internal/schema"
	"pga/internal/spec"
	"pga/internal/stats"
)

// E5 — Alba & Troya (2002) comparatively analysed steady-state,
// generational and cellular GAs as island demes: time complexity,
// selection pressure, schema processing rates, efficacy and efficiency.
// The reproduction runs a ring of islands whose demes use each scheme and
// reports efficacy/effort, plus the schema growth rate of a fit
// building-block schema measured on the standalone engines.
func init() {
	register(Experiment{
		ID:     "E05",
		Title:  "evolution schemes as island demes: generational vs steady-state vs cellular",
		Source: "Alba & Troya 2002 (survey §2): panmictic and structured evolution schemes",
		Run:    runE05,
	})
}

func runE05(w io.Writer, quick bool) {
	runs := scale(quick, 15, 3)
	maxGens := scale(quick, 500, 60)
	bits := scale(quick, 48, 24)
	demes := 4
	popSize := 25 // cellular uses 5×5

	prob := spec.ProblemSpec{Name: "trap", Size: bits}
	inst, _ := prob.Instance(0)
	twopoint := func() *spec.OperatorSpec { return &spec.OperatorSpec{Name: "twopoint"} }
	bitflip := func() *spec.OperatorSpec { return &spec.OperatorSpec{Name: "bitflip"} }

	// Each scheme as a deme-engine spec; engine.type doubles as the
	// standalone model name for the schema-growth measurement.
	schemes := []struct {
		name   string
		engine spec.EngineSpec
	}{
		{"generational", spec.EngineSpec{Pop: popSize, Crossover: twopoint(), Mutator: bitflip()}},
		{"steady-state", spec.EngineSpec{Type: "steadystate", Pop: popSize, Crossover: twopoint(), Mutator: bitflip()}},
		{"cellular", spec.EngineSpec{Type: "cellular", Grid: &spec.GridSpec{Rows: 5, Cols: 5}, Crossover: twopoint(), Mutator: bitflip()}},
	}

	fprintf(w, "ring of %d islands × %d individuals on %s, %d runs/scheme\n\n", demes, popSize, inst.Name(), runs)
	fprintf(w, "%-14s %-9s %-14s %-14s %-14s\n", "scheme", "hit-rate", "med-evals", "mean-best", "schema-growth")

	for _, sc := range schemes {
		var hit stats.HitRate
		var finals []float64
		rs := spec.RunSpec{
			Model:   spec.ModelIslands,
			Problem: prob,
			Engine:  sc.engine,
			Islands: &spec.IslandSpec{Demes: demes, Migration: migrationEvery(10, 2)},
			Budget:  spec.BudgetSpec{Generations: maxGens, TargetOptimum: true},
		}
		for r := 0; r < runs; r++ {
			rs.Seed = uint64(r) * 101
			rep := mustBuild(rs).Run(spec.RunOpts{})
			hit.Record(rep.Solved, rep.SolvedAtEval)
			finals = append(finals, rep.Best)
		}

		// Schema processing rate on the standalone engine: growth of the
		// first trap block's optimal schema 1111****…
		pattern := make([]byte, bits)
		for i := range pattern {
			pattern[i] = '*'
		}
		for i := 0; i < 4; i++ {
			pattern[i] = '1'
		}
		sch := schema.MustParse(string(pattern))
		standalone := spec.RunSpec{Model: spec.ModelGenerational, Problem: prob, Engine: sc.engine}
		if sc.engine.Type != "" {
			standalone.Model = sc.engine.Type
			standalone.Engine.Type = ""
		}
		growth := 0.0
		const schemaRuns = 5
		for r := 0; r < schemaRuns; r++ {
			standalone.Seed = uint64(r)*977 + 5
			e := mustBuild(standalone).Engine
			tr := schema.NewTracker(sch)
			tr.Observe(e.Population())
			for g := 0; g < 20; g++ {
				e.Step()
				tr.Observe(e.Population())
			}
			growth += tr.GrowthRate(0)
		}
		growth /= schemaRuns

		fprintf(w, "%-14s %-9s %-14.0f %-14.2f %-14.3f\n",
			sc.name, rate(&hit), medianEffort(&hit), stats.Summarize(finals).Mean, growth)
	}
	fprintf(w, "\nshape check: steady-state shows the highest schema processing rate (selection\n")
	fprintf(w, "pressure) but over-converges on this deceptive landscape; the cellular scheme's\n")
	fprintf(w, "mating restriction is the most robust; generational sits between — the\n")
	fprintf(w, "pressure/robustness tradeoff of Alba & Troya's comparison. All schemes grow\n")
	fprintf(w, "fit schemata at a rate above 1 (the schema theorem).\n")
}
