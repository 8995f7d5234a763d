package exp

import (
	"io"

	"pga/internal/spec"
)

// E13 — the survey's §4 reviews PGA applications across numerical
// mathematics, computer science, finance and engineering. The
// reproduction runs every synthetic application workload with a
// sequential GA and an island PGA at the same evaluation budget and
// reports the quality each reaches — the "PGA gains not only time but
// also outcome" observation (e.g. Pereira 2003).
func init() {
	registerSweep(Experiment{
		ID:     "E13",
		Title:  "application workloads: sequential GA vs island PGA at equal budget",
		Source: "survey §4 applications (Sena, Kwok, Moser, Chalermwat/Fan, Kwon & Moon, Pereira, Solano, Olague, graph problems)",
	}, spec.RunOpts{}, reduceE13, "E13.json")
}

// e13Labels names each workload of E13.json and says which direction of
// its fitness is better.
var e13Labels = map[string]struct{ name, better string }{
	"tsp-circle":    {"TSP (circle, known opt)", "shorter"},
	"tsp-clustered": {"TSP (clustered)", "shorter"},
	"sched":         {"task scheduling", "shorter"},
	"featsel":       {"feature selection", "higher"},
	"imgreg":        {"image registration", "higher"},
	"stock":         {"stock prediction (MLP)", "lower"},
	"doppler-ar2":   {"Doppler AR(2) fit", "lower"},
	"reactor":       {"reactor core loading", "lower"},
	"graphpart":     {"graph partitioning", "lower"},
	"cameras":       {"camera placement", "higher"},
}

// reduceE13 reads E13.json's rows in pairs per workload: the sequential
// GA first, then the island PGA.
func reduceE13(w io.Writer, gs []grid) {
	g := gs[0]
	seq, isl := g[0].spec, g[1].spec
	fprintf(w, "sequential GA (pop %d) vs %d-island ring PGA (%d×%d) at ≤%d evaluations, %d runs/cell\n\n",
		seq.Engine.Pop, isl.Islands.Demes, isl.Islands.Demes, isl.Engine.Pop, seq.Budget.Evaluations, g.runs())
	fprintf(w, "%-26s %-14s %-14s %-10s\n", "workload", "sequential", "island PGA", "better")
	for i := 0; i < len(g); i += 2 {
		label := e13Labels[g[i].spec.Problem.Name]
		_, s := g[i].outcome()
		_, p := g[i+1].outcome()
		fprintf(w, "%-26s %-14.4f %-14.4f %-10s\n", label.name, s.Mean, p.Mean, label.better)
	}
	fprintf(w, "\nshape check: at equal evaluation budgets the island PGA matches or improves the\n")
	fprintf(w, "sequential outcome on the multimodal workloads — Pereira's 'gains not only in\n")
	fprintf(w, "computational time, but also in the optimization outcome'.\n")
}
