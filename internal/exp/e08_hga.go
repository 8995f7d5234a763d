package exp

import (
	"fmt"
	"io"
	"strings"

	"pga/internal/spec"
)

// E8 — Sefrioui & Périaux (2000): a hierarchical GA mixing cheap and
// precise fitness models reached the same nozzle-reconstruction quality
// as precise-only runs roughly three times faster. The reproduction runs
// the mixed 3-layer hierarchy and the precise-only control at a range of
// cost budgets and reports the quality reached per budget, plus the cost
// each needs to reach a common quality threshold.
func init() {
	registerSweep(Experiment{
		ID:     "E08",
		Title:  "hierarchical multi-fidelity GA vs precise-only at equal cost",
		Source: "Sefrioui & Périaux 2000 (survey §2): HGA three times faster at equal quality",
	}, spec.RunOpts{}, reduceE08, "E08.json")
}

// e08Table is the span of E08.json's cost ladder the quality table
// prints; the precise-only quality at its last budget is the common
// threshold.
var e08Table = [2]float64{1000, 8000}

// reduceE08 reads E08.json's rows in pairs per cost budget, ascending:
// the mixed hierarchy (levels [0,1,2]) first, then precise-only
// ([0,0,0]).
func reduceE08(w io.Writer, gs []grid) {
	g := gs[0]
	first := g[0].spec
	layers := make([]string, len(first.HGA.Layers))
	for i, n := range first.HGA.Layers {
		layers[i] = fmt.Sprint(n)
	}
	// hga runs the quantized multi-fidelity wrapper of the problem.
	fprintf(w, "%d-layer hierarchy (%s demes) on %s-mf, %d runs/cell; cells: mean best (precise model)\n\n",
		len(layers), strings.Join(layers, "+"), problemName(first), g.runs())
	fprintf(w, "%-12s %-16s %-16s\n", "cost budget", "mixed levels", "precise-only")

	quality := func(r row) float64 {
		_, final := r.outcome()
		return final.Mean
	}
	var target float64
	for i := 0; i < len(g); i += 2 {
		if cost := g[i].spec.Budget.Cost; cost >= e08Table[0] && cost <= e08Table[1] {
			fprintf(w, "%-12.0f %-16.4f %-16.4f\n", cost, quality(g[i]), quality(g[i+1]))
			target = quality(g[i+1])
		}
	}

	// Cost-to-common-quality: the first budget of the ladder at which
	// each variant reaches the precise-only quality of the table's last.
	costTo := func(variant int) float64 {
		for i := variant; i < len(g); i += 2 {
			if quality(g[i]) <= target {
				return g[i].spec.Budget.Cost
			}
		}
		return -1
	}
	cm, cp := costTo(0), costTo(1)
	fprintf(w, "\ncost to reach quality %.4f:  mixed=%.0f  precise-only=%.0f", target, cm, cp)
	if cm > 0 && cp > 0 {
		fprintf(w, "  (ratio %.1f×)", cp/cm)
	}
	fprintf(w, "\n\nshape check: the mixed hierarchy reaches the precise-only quality at a fraction\n")
	fprintf(w, "of the cost (Sefrioui & Périaux reported ≈3×; the exact factor depends on the\n")
	fprintf(w, "relative model costs, here 1 : 0.25 : 0.0625).\n")
}
