package exp

import (
	"fmt"
	"io"

	"pga/internal/spec"
)

// E3 — Alba & Troya (2000) studied how the migration policy (frequency
// and migrant selection) influences a ring of islands across easy,
// deceptive, multimodal, NP-complete and epistatic landscapes. The
// reproduction sweeps migration interval × migrant selection over the
// same five problem classes and reports efficacy (hit rate) and effort
// (median evaluations of successful runs), or the final best fitness for
// the problem without a known optimum (NK).
func init() {
	registerSweep(Experiment{
		ID:     "E03",
		Title:  "migration frequency × migrant selection across problem classes",
		Source: "Alba & Troya 2000 (survey §4): influence of the migration policy",
	}, spec.RunOpts{}, reduceE03, "E03.json")
}

// reduceE03 prints one table per problem; E03.json's axes run problem
// (slowest), interval, then migrant selection, so each problem is a
// block of consecutive rows and each interval a block within it.
func reduceE03(w io.Writer, gs []grid) {
	g := gs[0]
	first := g[0].spec
	fprintf(w, "ring of %d islands × %d individuals, %d runs/cell; cells: hit-rate (med-evals) or mean-best for NK\n\n",
		first.Islands.Demes, first.Engine.Pop, g.runs())

	perProblem := span(g, func(s spec.RunSpec) any { return s.Problem.Name })
	selectors := span(g, func(s spec.RunSpec) any { return s.Islands.Migration.Interval })
	for p := 0; p < len(g); p += perProblem {
		fprintf(w, "--- %s ---\n", problemName(g[p].spec))
		fprintf(w, "%-10s", "interval")
		for _, r := range g[p : p+selectors] {
			fprintf(w, " %-22s", "migrants="+r.spec.Islands.Migration.Select)
		}
		fprintf(w, "\n")
		for i := p; i < p+perProblem; i += selectors {
			label := "isolated"
			if interval := g[i].spec.Islands.Migration.Interval; interval > 0 {
				label = fmt.Sprintf("%d", interval)
			}
			fprintf(w, "%-10s", label)
			for _, r := range g[i : i+selectors] {
				hit, final := r.outcome()
				if r.spec.Budget.TargetOptimum {
					cell := rate(hit)
					if hit.Hits() > 0 {
						cell += fmt.Sprintf(" (%.0f)", hit.Effort().Median)
					}
					fprintf(w, " %-22s", cell)
				} else {
					fprintf(w, " %-22s", fmt.Sprintf("%.4f", final.Mean))
				}
			}
			fprintf(w, "\n")
		}
		fprintf(w, "\n")
	}
	fprintf(w, "shape check: moderate intervals beat both extremes (every-generation migration\n")
	fprintf(w, "≈ panmixia, isolation starves demes); best-selection converges faster on easy\n")
	fprintf(w, "landscapes while random-selection preserves diversity on deceptive ones.\n")
}

// span is the number of leading rows of g whose specs agree on key.
func span(g grid, key func(spec.RunSpec) any) int {
	n := 1
	for n < len(g) && key(g[n].spec) == key(g[0].spec) {
		n++
	}
	return n
}
