package exp

import (
	"io"

	"pga/internal/engine"
	"pga/internal/p2p"
	"pga/internal/problems"
	"pga/internal/stats"
)

// A07 — the survey's §4 reviews DREAM/DRM (Arenas 2002, Jelasity 2002): a
// peer-to-peer evolutionary virtual machine over the open Internet, where
// nodes join and leave at will. The reproduction sweeps churn rates over
// the gossip overlay and reports efficacy and churn traffic — DREAM's
// robustness story: the epidemic overlay degrades gracefully.
func init() {
	register(Experiment{
		ID:     "A07",
		Title:  "DREAM-style P2P overlay: efficacy under node churn",
		Source: "Arenas 2002 / Jelasity 2002 (survey §4): distributed resource machine",
		Run:    runA07,
	})
}

func runA07(w io.Writer, quick bool) {
	runs := scale(quick, 10, 3)
	maxGens := scale(quick, 200, 60)
	bits := scale(quick, 64, 32)
	peers := scale(quick, 16, 8)

	fprintf(w, "%d peers × 12 individuals, gossip every 5 gens, onemax(%d), %d runs/row\n\n", peers, bits, runs)
	fprintf(w, "%-12s %-9s %-12s %-12s %-10s %-10s\n",
		"churn/gen", "hit-rate", "mean-best", "departures", "joins", "messages")

	for _, churn := range []float64{0, 0.01, 0.05, 0.10} {
		var hit stats.HitRate
		var finals, deps, joins, msgs []float64
		for r := 0; r < runs; r++ {
			cfg := p2p.Config{
				Problem:   problems.OneMax{N: bits},
				Peers:     peers,
				NewEngine: demeEngine(problems.OneMax{N: bits}, 12),
				ChurnRate: churn,
				Seed:      uint64(r)*271 + 5,
			}
			res := p2p.New(cfg).Run(maxGens, engine.Control{})
			hit.Record(res.Solved, res.Evaluations)
			finals = append(finals, res.BestFitness)
			deps = append(deps, float64(res.Departures))
			joins = append(joins, float64(res.Joins))
			msgs = append(msgs, float64(res.Messages))
		}
		fprintf(w, "%-12.2f %-9s %-12.2f %-12.1f %-10.1f %-10.1f\n",
			churn, rate(&hit), stats.Summarize(finals).Mean,
			stats.Summarize(deps).Mean, stats.Summarize(joins).Mean, stats.Summarize(msgs).Mean)
	}
	fprintf(w, "\nshape check: efficacy holds at moderate churn and degrades gracefully as churn\n")
	fprintf(w, "grows — the epidemic overlay keeps spreading good genes while nodes come and\n")
	fprintf(w, "go, DREAM's robustness claim for Internet-scale evolutionary computation.\n")
}
