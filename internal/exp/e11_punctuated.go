package exp

import (
	"io"

	"pga/internal/core"
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
	register(Experiment{
		ID:     "E11",
		Title:  "punctuated equilibria: improvement bursts after migration",
		Source: "Cohoon et al. 1987 (survey §2): punctuated equilibria in parallel EAs",
		Run:    runE11,
	})
}

func runE11(w io.Writer, quick bool) {
	runs := scale(quick, 20, 5)
	interval := 25
	maxGens := scale(quick, 200, 100)
	blocks := scale(quick, 16, 8)
	prob := spec.ProblemSpec{Name: "trap", Size: blocks * 4}
	inst, _ := prob.Instance(0)

	// windowGens counts the generations considered "post-migration".
	const window = 3

	var postRate, baseRate float64
	var curves [][]float64
	rs := spec.RunSpec{
		Model:   spec.ModelIslands,
		Problem: prob,
		Engine:  demeEngineSpec(20),
		Islands: &spec.IslandSpec{Demes: 4, Migration: migrationEvery(interval, 2)},
		Budget:  spec.BudgetSpec{Generations: maxGens},
	}
	for r := 0; r < runs; r++ {
		rs.Seed = uint64(r)*61 + 7
		// Drive the island handle directly: the experiment needs the full
		// per-generation trace with generation numbers, a pure cap stop.
		res := mustBuild(rs).Islands.RunSequential(core.MaxGenerations(maxGens), engine.Control{Trace: true})
		var post, postImp, base, baseImp int
		bests := make([]float64, 0, len(res.Trace))
		for i := 1; i < len(res.Trace); i++ {
			improved := res.Trace[i].Best > res.Trace[i-1].Best
			g := res.Trace[i].Generation
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
			bests = append(bests, res.Trace[i].Best)
		}
		if post > 0 {
			postRate += float64(postImp) / float64(post)
		}
		if base > 0 {
			baseRate += float64(baseImp) / float64(base)
		}
		if r < 3 {
			curves = append(curves, bests)
		}
	}
	postRate /= float64(runs)
	baseRate /= float64(runs)

	fprintf(w, "ring of 4 islands, migration every %d generations, %s, %d runs\n\n", interval, inst.Name(), runs)
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
