package exp

import (
	"io"

	"pga/internal/cluster"
	"pga/internal/spec"
)

// E12 — Rivera (2001) reviewed the scalability of parallel GAs. The
// reproduction measures strong scaling (fixed total population spread
// over more demes) and weak scaling (fixed per-deme population, so total
// work grows with the deme count) on the virtual cluster, reporting
// modelled time, speedup and efficiency up to 64 demes, driven by the
// real engines' measured evaluation counts.
func init() {
	registerSweep(Experiment{
		ID:     "E12",
		Title:  "strong and weak scaling of the island model (modelled wall-clock)",
		Source: "Rivera 2001 (survey §2): scalable parallel genetic algorithms",
	}, spec.RunOpts{}, reduceE12, "E12-strong.json", "E12-weak.json")
}

func reduceE12(w io.Writer, gs []grid) {
	strong, weak := gs[0], gs[1]
	first := strong[0].spec
	fprintf(w, "part A — strong scaling: total population %d split over k demes (ring, interval %d)\n",
		first.Islands.Demes*first.Engine.Pop, first.Islands.Migration.Interval)
	fprintf(w, "all times are modelled on a virtual GigE cluster, one deme per node\n\n")
	fprintf(w, "%-6s %-12s %-12s %-12s %-10s\n", "k", "gens/deme", "mod-time(s)", "speedup", "efficiency")
	var baseTime float64
	for _, r := range strong {
		k, gens := r.spec.Islands.Demes, meanGens(r)
		t := modelledTime(r.spec, gens)
		if k == 1 {
			baseTime = t
		}
		sp := cluster.Speedup(baseTime, t)
		fprintf(w, "%-6d %-12d %-12.4f %-12.2f %-10.2f\n", k, gens, t, sp, cluster.Efficiency(sp, k))
	}

	fprintf(w, "\npart B — weak scaling: %d individuals per deme, k demes (total work grows with k)\n\n", weak[0].spec.Engine.Pop)
	fprintf(w, "%-6s %-12s %-12s %-14s\n", "k", "gens/deme", "mod-time(s)", "scaled-eff.")
	var weakBase float64
	for _, r := range weak {
		k, gens := r.spec.Islands.Demes, meanGens(r)
		t := modelledTime(r.spec, gens)
		if k == 1 {
			weakBase = t
		}
		// Weak-scaling efficiency: T(1)/T(k) for k× the work on k nodes.
		fprintf(w, "%-6d %-12d %-12.4f %-14.2f\n", k, gens, t, weakBase/t)
	}
	fprintf(w, "\nshape check: strong-scaling efficiency stays high and decays gently with k as\n")
	fprintf(w, "the communication share grows; weak-scaling efficiency stays at or above 1 —\n")
	fprintf(w, "migration lets k cooperating demes finish in fewer generations than one deme\n")
	fprintf(w, "alone, the collaborative bonus behind Rivera's scalability review.\n")
}

// meanGens is the mean generations a row's runs needed to solve, counting
// an unsolved run at the generation cap.
func meanGens(r row) int {
	total := 0
	for _, rep := range r.reports {
		if rep.Solved {
			total += int(rep.SolvedAtEval / int64(r.spec.Islands.Demes*r.spec.Engine.Pop))
		} else {
			total += r.spec.Budget.Generations
		}
	}
	return max(total/len(r.reports), 1)
}
