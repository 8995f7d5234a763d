package exp

import (
	"io"

	"pga/internal/apps"
	"pga/internal/core"
	"pga/internal/engine"
	"pga/internal/ga"
	"pga/internal/island"
	"pga/internal/migration"
	"pga/internal/operators"
	"pga/internal/rng"
	"pga/internal/stats"
	"pga/internal/topology"
)

// E13 — the survey's §4 reviews PGA applications across numerical
// mathematics, computer science, finance and engineering. The
// reproduction runs every synthetic application workload with a
// sequential GA and an island PGA at the same evaluation budget and
// reports the quality each reaches — the "PGA gains not only time but
// also outcome" observation (e.g. Pereira 2003).
func init() {
	register(Experiment{
		ID:     "E13",
		Title:  "application workloads: sequential GA vs island PGA at equal budget",
		Source: "survey §4 applications (Sena, Kwok, Moser, Chalermwat/Fan, Kwon & Moon, Pereira, Solano, Olague, graph problems)",
		Run:    runE13,
	})
}

// appCase describes one application workload and its operators.
type appCase struct {
	name      string
	problem   core.Problem
	crossover operators.Crossover
	mutator   operators.Mutator
	better    string // reading aid: which direction is better
}

func e13Cases(quick bool) []appCase {
	n := scale(quick, 40, 16)
	return []appCase{
		{"TSP (circle, known opt)", apps.NewCircleTSP(n), operators.OX{}, operators.Inversion{}, "shorter"},
		{"TSP (clustered)", apps.NewClusteredTSP(n, 5, 99), operators.OX{}, operators.Inversion{}, "shorter"},
		{"task scheduling", apps.NewScheduling(scale(quick, 60, 24), 6, 99), operators.Uniform{}, operators.UniformReset{P: 0.05}, "shorter"},
		{"feature selection", apps.NewFeatureSelection(scale(quick, 32, 16), 5, 3, 15, 99), operators.Uniform{}, operators.BitFlip{}, "higher"},
		{"image registration", registration(quick), operators.BLX{}, operators.Gaussian{P: 0.5, Sigma: 0.3}, "higher"},
		{"stock prediction (MLP)", apps.NewStockPrediction(scale(quick, 300, 150), 5, 4, 99), operators.BLX{}, operators.Gaussian{P: 0.2, Sigma: 0.2}, "lower"},
		{"Doppler AR(2) fit", apps.NewSpectralEstimation(scale(quick, 400, 150), 99), operators.SBX{}, operators.Polynomial{}, "lower"},
		{"reactor core loading", apps.NewReactorCore(7, 3, 99), operators.TwoPoint{}, operators.UniformReset{P: 0.03}, "lower"},
		{"graph partitioning", apps.NewGraphPartition(scale(quick, 48, 24), 0.4, 0.04, 99), operators.Uniform{}, operators.BitFlip{}, "lower"},
		{"camera placement", apps.NewCameraPlacement(4, scale(quick, 40, 20), 99), operators.BLX{}, operators.Gaussian{P: 0.3, Sigma: 0.3}, "higher"},
	}
}

func registration(quick bool) core.Problem {
	ir := apps.NewImageRegistration(scale(quick, 32, 20), 99)
	ir.Downsample = 2
	return ir
}

func runE13(w io.Writer, quick bool) {
	runs := scale(quick, 5, 2)
	budget := int64(scale(quick, 12000, 3000))

	fprintf(w, "sequential GA (pop 64) vs 4-island ring PGA (4×16) at ≤%d evaluations, %d runs/cell\n\n", budget, runs)
	fprintf(w, "%-26s %-14s %-14s %-10s\n", "workload", "sequential", "island PGA", "better")

	for _, c := range e13Cases(quick) {
		var seqBest, parBest []float64
		for r := 0; r < runs; r++ {
			seed := uint64(r)*997 + 13
			// Sequential baseline.
			e := ga.NewGenerational(ga.Config{
				Problem: c.problem, PopSize: 64,
				Crossover: c.crossover, Mutator: c.mutator, RNG: rng.New(seed),
			})
			res := ga.Run(e, ga.RunOptions{Stop: core.MaxEvaluations(budget)})
			seqBest = append(seqBest, res.BestFitness)

			// Island PGA at the same budget.
			cc := c
			m := island.New(island.Config{
				Topology: topology.Ring(4),
				Policy:   migration.Policy{Interval: 10, Count: 2},
				NewEngine: func(d int, rr *rng.Source) ga.Engine {
					return ga.NewGenerational(ga.Config{
						Problem: cc.problem, PopSize: 16,
						Crossover: cc.crossover, Mutator: cc.mutator, RNG: rr,
					})
				},
				Seed: seed,
			})
			ires := m.RunSequential(core.MaxEvaluations(budget), engine.Control{})
			parBest = append(parBest, ires.BestFitness)
		}
		fprintf(w, "%-26s %-14.4f %-14.4f %-10s\n",
			c.name, stats.Summarize(seqBest).Mean, stats.Summarize(parBest).Mean, c.better)
	}
	fprintf(w, "\nshape check: at equal evaluation budgets the island PGA matches or improves the\n")
	fprintf(w, "sequential outcome on the multimodal workloads — Pereira's 'gains not only in\n")
	fprintf(w, "computational time, but also in the optimization outcome'.\n")
}
