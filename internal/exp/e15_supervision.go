package exp

import (
	"io"
	"time"

	"pga/internal/engine"
	"pga/internal/island"
	"pga/internal/migration"
	"pga/internal/problems"
	"pga/internal/supervise"
	"pga/internal/topology"
)

// E15 — the survey's §4 adopts Gagné, Parizeau & Dubreuil's three
// properties a distributed EC system must offer — transparency,
// robustness, adaptivity — and E07 shows them for the master–slave farm.
// This experiment shows them for the island model itself: the same
// seeded parallel run executes fault-free, with injected transient
// faults (a deme panic and a deme hang), and with a permanently dying
// deme. Supervision converts each fault into a checkpoint restart or a
// healed topology, so every variant completes and solves; the table
// reports the recovery counters alongside solution quality.
func init() {
	register(Experiment{
		ID:     "E15",
		Title:  "island supervision under injected faults",
		Source: "survey §4: Gagné et al.'s robustness properties, applied to demes",
		Run:    runE15,
	})
}

func runE15(w io.Writer, quick bool) {
	runs := scale(quick, 5, 2)
	maxGens := scale(quick, 400, 200)
	bits := scale(quick, 64, 48)
	popSize := scale(quick, 30, 20)
	demes := 4
	heartbeat := 30 * time.Millisecond
	hang := 90 * time.Millisecond

	base := func(seed uint64, res *supervise.Config, plan *supervise.FaultPlan) *island.Model {
		return island.New(island.Config{
			Topology:   topology.Ring(demes),
			Policy:     migration.Policy{Interval: 5, Count: 2, Sync: true},
			NewEngine:  demeEngine(problems.OneMax{N: bits}, popSize),
			Seed:       seed,
			Resilience: res,
			Faults:     plan,
		})
	}
	resilient := func() *supervise.Config {
		return &supervise.Config{
			CheckpointEvery: 5,
			MaxRestarts:     4,
			Heartbeat:       heartbeat,
			Backoff:         time.Millisecond,
		}
	}

	scenarios := []struct {
		name string
		mk   func(seed uint64) *island.Model
	}{
		{"fault-free", func(seed uint64) *island.Model {
			return base(seed, resilient(), nil)
		}},
		{"transient: panic + hang", func(seed uint64) *island.Model {
			plan := supervise.NewFaultPlan().
				PanicAt(1, 6).
				HangAt(2, 9, hang)
			return base(seed, resilient(), plan)
		}},
		{"repeated panics (one deme)", func(seed uint64) *island.Model {
			plan := supervise.NewFaultPlan().PanicTimes(1, 4, 3)
			return base(seed, resilient(), plan)
		}},
		{"hard death: budget 0", func(seed uint64) *island.Model {
			res := resilient()
			res.MaxRestarts = -1 // first failure kills the deme
			return base(seed, res, supervise.NewFaultPlan().PanicAt(3, 8))
		}},
	}

	fprintf(w, "%d-deme ring, onemax(%d), pop %d/deme, parallel sync, checkpoint every 5,\n", demes, bits, popSize)
	fprintf(w, "heartbeat %v, injected hang %v, %d runs/scenario\n\n", heartbeat, hang, runs)
	fprintf(w, "%-28s %-9s %-10s %-9s %-9s %-9s %-6s %-10s\n",
		"scenario", "hit-rate", "med-gens", "restarts", "panics", "timeouts", "dead", "mean-best")

	for _, sc := range scenarios {
		var solvedRuns, gens int
		var restarts, panics, timeouts, dead int64
		var bestSum float64
		for r := 0; r < runs; r++ {
			res := sc.mk(uint64(r)*101+7).RunParallel(maxGens, engine.Control{})
			if res.Solved {
				solvedRuns++
				gens += res.SolvedAtGen
			}
			restarts += res.Restarts
			panics += res.PanicsRecovered
			timeouts += res.HeartbeatTimeouts
			dead += int64(len(res.DeadDemes))
			bestSum += res.BestFitness
		}
		medGens := 0
		if solvedRuns > 0 {
			medGens = gens / solvedRuns
		}
		fprintf(w, "%-28s %d/%-7d %-10d %-9.1f %-9.1f %-9.1f %-6.1f %-10.2f\n",
			sc.name, solvedRuns, runs, medGens,
			float64(restarts)/float64(runs), float64(panics)/float64(runs),
			float64(timeouts)/float64(runs), float64(dead)/float64(runs),
			bestSum/float64(runs))
	}

	fprintf(w, "\nshape check: every scenario keeps solving — a panic costs one deme at most one\n")
	fprintf(w, "checkpoint interval, a hang is abandoned at the heartbeat deadline, and a dead\n")
	fprintf(w, "deme is frozen at its checkpoint while the ring heals around it. The run-level\n")
	fprintf(w, "hit-rate is unchanged by the injected faults — Gagné's robustness, deme edition.\n")
}
