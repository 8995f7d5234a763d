package exp

import (
	"io"

	"pga/internal/spec"
)

// E9 — Xiao & Armstrong (2003) tested seven scenarios of their
// specialized island model, varying sub-EA count, specialisation and
// communication topology, on multi-objective problems. The reproduction
// runs all seven on ZDT1 and reports the tight-reference hypervolume
// (near-front coverage), archive size and evaluation count.
func init() {
	registerSweep(Experiment{
		ID:     "E09",
		Title:  "specialized island model: the seven scenarios on ZDT1",
		Source: "Xiao & Armstrong 2003 (survey §2): a specialized island model",
	}, spec.RunOpts{}, reduceE09, "E09.json")
}

// reduceE09 prints one row per scenario, labelled by the scenario the
// built config names.
func reduceE09(w io.Writer, gs []grid) {
	first := gs[0][0].spec
	fprintf(w, "ZDT1(%d), %d gens, deme %d, %d runs/scenario; hypervolume ref (%g, %g): near-front coverage\n\n",
		first.Problem.Size, first.Budget.Generations, first.SIM.DemeSize, gs[0].runs(), first.SIM.HVRef[0], first.SIM.HVRef[1])
	fprintf(w, "%-28s %-10s %-12s %-10s %-10s\n", "scenario", "islands", "hypervolume", "archive", "evals")
	for _, r := range gs[0] {
		fprintf(w, "%-28s %-10d %-12.4f %-10.1f %-10.0f\n",
			mustBuild(r.spec).SIMConfig.Scenario, r.reports[0].Islands,
			r.mean(func(rep *spec.Report) float64 { return rep.Hypervolume }),
			r.mean(func(rep *spec.Report) float64 { return float64(rep.ParetoSize) }),
			r.mean(func(rep *spec.Report) float64 { return float64(rep.Evaluations) }))
	}
	fprintf(w, "\nshape check: communication beats isolation within each specialisation style\n")
	fprintf(w, "(S3>S2, S5/S7>S4), and the generalist-hub scenario S6 recovers most of the\n")
	fprintf(w, "front that isolated specialists miss — Xiao & Armstrong's comparison shape.\n")
}
