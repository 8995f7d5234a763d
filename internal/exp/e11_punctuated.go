package exp

import (
	"io"

	"pga/internal/engine"
	"pga/internal/spec"
	"pga/internal/stats"
)

// E11 — Cohoon et al. (1987) showed that punctuated equilibria transfers
// to parallel EAs: long stasis periods inside demes interrupted by bursts
// of evolutionary progress right after migration events. The reproduction
// traces the global best of an island run with a long migration interval
// and compares the improvement frequency in the generations just after a
// migration against the background rate.
func init() {
	registerSweep(Experiment{
		ID:     "E11",
		Title:  "punctuated equilibria: improvement bursts after migration",
		Source: "Cohoon et al. 1987 (survey §2): punctuated equilibria in parallel EAs",
	}, spec.RunOpts{Control: engine.Control{Trace: true}}, reduceE11, "E11.json")
}

// reduceE11 reads the per-generation traces of E11.json's runs, whose
// budget is a pure generation cap.
func reduceE11(w io.Writer, gs []grid) {
	r := gs[0][0]
	interval := r.spec.Islands.Migration.Interval
	runs := len(r.reports)

	// windowGens counts the generations considered "post-migration".
	const window = 3

	var postRate, baseRate float64
	var curves [][]float64
	for run, rep := range r.reports {
		var post, postImp, base, baseImp int
		bests := make([]float64, 0, len(rep.Trace))
		for i := 1; i < len(rep.Trace); i++ {
			improved := rep.Trace[i].Best > rep.Trace[i-1].Best
			g := rep.Trace[i].Generation
			sinceMig := g % interval
			if g > interval && sinceMig >= 1 && sinceMig <= window {
				post++
				if improved {
					postImp++
				}
			} else if g > interval {
				base++
				if improved {
					baseImp++
				}
			}
			bests = append(bests, rep.Trace[i].Best)
		}
		if post > 0 {
			postRate += float64(postImp) / float64(post)
		}
		if base > 0 {
			baseRate += float64(baseImp) / float64(base)
		}
		if run < 3 {
			curves = append(curves, bests)
		}
	}
	postRate /= float64(runs)
	baseRate /= float64(runs)

	fprintf(w, "ring of %d islands, migration every %d generations, %s, %d runs\n\n",
		r.spec.Islands.Demes, interval, problemName(r.spec), runs)
	for i, c := range curves {
		fprintf(w, "run %d best-fitness trace: %s\n", i+1, stats.Sparkline(stats.Downsample(c, 60)))
	}
	fprintf(w, "\nP(improvement | ≤%d gens after migration) = %.3f\n", window, postRate)
	fprintf(w, "P(improvement | otherwise)               = %.3f\n", baseRate)
	if baseRate > 0 {
		fprintf(w, "burst factor = %.2f×\n", postRate/baseRate)
	}
	fprintf(w, "\nshape check: improvements cluster right after migration events (burst factor\n")
	fprintf(w, "well above 1) — stasis punctuated by migration, Cohoon's transfer of the\n")
	fprintf(w, "punctuated-equilibria theory to parallel EAs.\n")
}
