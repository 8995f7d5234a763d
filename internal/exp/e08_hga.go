package exp

import (
	"io"

	"pga/internal/engine"
	"pga/internal/hga"
	"pga/internal/operators"
	"pga/internal/problems"
	"pga/internal/stats"
)

// E8 — Sefrioui & Périaux (2000): a hierarchical GA mixing cheap and
// precise fitness models reached the same nozzle-reconstruction quality
// as precise-only runs roughly three times faster. The reproduction runs
// the mixed 3-layer hierarchy and the precise-only control at a range of
// cost budgets and reports the quality reached per budget, plus the cost
// each needs to reach a common quality threshold.
func init() {
	register(Experiment{
		ID:     "E08",
		Title:  "hierarchical multi-fidelity GA vs precise-only at equal cost",
		Source: "Sefrioui & Périaux 2000 (survey §2): HGA three times faster at equal quality",
		Run:    runE08,
	})
}

func runE08(w io.Writer, quick bool) {
	runs := scale(quick, 10, 3)
	budgets := []float64{1000, 2000, 4000, 8000}
	if quick {
		budgets = []float64{800, 1600}
	}
	mf := hga.NewQuantized(problems.Rastrigin(8))

	build := func(seed uint64, preciseOnly bool) *hga.Model {
		cfg := hga.Config{
			Problem:   mf,
			DemeSize:  scale(quick, 30, 16),
			Crossover: operators.SBX{},
			Mutator:   operators.Polynomial{},
			Seed:      seed,
		}
		if preciseOnly {
			cfg.LevelOf = []int{0, 0, 0}
		}
		return hga.New(cfg)
	}

	fprintf(w, "3-layer hierarchy (1+2+4 demes) on %s, %d runs/cell; cells: mean best (precise model)\n\n", mf.Name(), runs)
	fprintf(w, "%-12s %-16s %-16s\n", "cost budget", "mixed levels", "precise-only")

	var mixedAt, preciseAt []float64 // quality at the largest budget
	for _, budget := range budgets {
		var mixed, precise []float64
		for r := 0; r < runs; r++ {
			mixed = append(mixed, build(uint64(r)*13+1, false).Run(budget, engine.Control{}).BestFitness)
			precise = append(precise, build(uint64(r)*13+1, true).Run(budget, engine.Control{}).BestFitness)
		}
		fprintf(w, "%-12.0f %-16.4f %-16.4f\n", budget,
			stats.Summarize(mixed).Mean, stats.Summarize(precise).Mean)
		mixedAt, preciseAt = mixed, precise
	}

	// Cost-to-common-quality: find the budget at which each variant first
	// reaches the precise-only large-budget quality.
	target := stats.Summarize(preciseAt).Mean
	_ = mixedAt
	costTo := func(preciseOnly bool) float64 {
		for _, budget := range []float64{250, 500, 1000, 2000, 4000, 8000, 16000} {
			var q []float64
			for r := 0; r < runs; r++ {
				q = append(q, build(uint64(r)*13+1, preciseOnly).Run(budget, engine.Control{}).BestFitness)
			}
			if stats.Summarize(q).Mean <= target {
				return budget
			}
		}
		return -1
	}
	cm := costTo(false)
	cp := costTo(true)
	fprintf(w, "\ncost to reach quality %.4f:  mixed=%.0f  precise-only=%.0f", target, cm, cp)
	if cm > 0 && cp > 0 {
		fprintf(w, "  (ratio %.1f×)", cp/cm)
	}
	fprintf(w, "\n\nshape check: the mixed hierarchy reaches the precise-only quality at a fraction\n")
	fprintf(w, "of the cost (Sefrioui & Périaux reported ≈3×; the exact factor depends on the\n")
	fprintf(w, "relative model costs, here 1 : 0.25 : 0.0625).\n")
}
