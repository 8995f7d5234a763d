// Fault tolerance at both levels of the library. First the master–slave
// farm: the same GA runs on a healthy worker farm and on farms where
// workers fail and die mid-run, demonstrating Gagné et al.'s
// transparency/robustness/adaptivity — the GA is oblivious, every run
// completes, and only redispatch overhead is paid. Then the island
// model's deme supervision: the same seeded parallel run executes with
// injected deme panics, a hang, and a permanent deme death, and recovers
// through checkpoint restarts and topology healing.
package main

import (
	"fmt"
	"time"

	"pga"
)

func run(label string, specs []pga.WorkerSpec) {
	prob := pga.OneMax(96)
	farm := pga.NewFarm(11, specs)
	e := pga.NewGenerational(pga.GAConfig{
		Problem:   prob,
		PopSize:   80,
		Crossover: pga.UniformCrossover{},
		Mutator:   pga.BitFlip{},
		Evaluator: farm,
		RNG:       pga.NewRNG(11),
	})
	res := pga.Run(e, pga.RunOptions{Stop: pga.AnyOf{pga.MaxGenerations(400), pga.Target(prob)}})
	st := farm.Stats()
	fmt.Printf("%-28s solved=%-5v evals=%-6d redispatched=%-5d dead-workers=%d/%d\n",
		label, res.Solved, res.Evaluations, st.Redispatched, st.DeadWorkers, farm.Workers())
	fmt.Printf("%-28s per-worker tasks: %v\n\n", "", st.TasksPerWorker)
}

func main() {
	fmt.Println("master–slave farm under increasingly hostile conditions")
	fmt.Println("(same GA, same seed — only the machine room changes)")
	fmt.Println()

	// Healthy homogeneous farm.
	run("8 healthy workers", pga.UniformWorkers(8))

	// Heterogeneous speeds: the fast workers take proportionally more
	// tasks (adaptive load balancing).
	het := pga.UniformWorkers(8)
	for i := range het {
		het[i].Speed = 0.5 + float64(i)*0.4
	}
	run("heterogeneous speeds", het)

	// Flaky workers: 30% of attempts fail but nothing dies.
	flaky := pga.UniformWorkers(8)
	for i := 0; i < 4; i++ {
		flaky[i].FailProb = 0.3
	}
	run("4 flaky workers (30%)", flaky)

	// Hard failures: six workers die early; the survivors absorb the work.
	dying := pga.UniformWorkers(8)
	for i := 0; i < 6; i++ {
		dying[i] = pga.WorkerSpec{Speed: 1, FailProb: 0.5, MaxFailures: 2}
	}
	run("6/8 workers die", dying)

	// Total loss: every worker dies; the master finishes the job itself.
	doomed := make([]pga.WorkerSpec, 4)
	for i := range doomed {
		doomed[i] = pga.WorkerSpec{Speed: 1, FailProb: 1, MaxFailures: 1}
	}
	run("all workers die", doomed)

	fmt.Println("island model under deme supervision")
	fmt.Println("(same seed — only the injected faults change)")
	fmt.Println()
	runIslands("fault-free", nil, nil)
	runIslands("panic + hang (transient)",
		&pga.Resilience{CheckpointEvery: 5, MaxRestarts: 3, Heartbeat: 30 * time.Millisecond},
		pga.NewFaultPlan().PanicAt(1, 6).HangAt(2, 9, 90*time.Millisecond))
	runIslands("deme 3 dies permanently",
		&pga.Resilience{CheckpointEvery: 5, MaxRestarts: -1},
		pga.NewFaultPlan().PanicAt(3, 8))
}

// runIslands runs a supervised 4-deme ring on OneMax with the given
// resilience tuning and fault script.
func runIslands(label string, res *pga.Resilience, plan *pga.FaultPlan) {
	if res == nil {
		res = &pga.Resilience{CheckpointEvery: 5, MaxRestarts: 3}
	}
	prob := pga.OneMax(64)
	m := pga.NewIslands(pga.IslandConfig{
		Demes:    4,
		Topology: pga.Ring,
		GA: pga.GAConfig{
			Problem:   prob,
			PopSize:   30,
			Crossover: pga.UniformCrossover{},
			Mutator:   pga.BitFlip{},
		},
		Migration:  pga.Migration{Interval: 5, Count: 2, Sync: true},
		Seed:       11,
		Resilience: res,
		Faults:     plan,
	})
	r := m.RunParallel(400, pga.Control{})
	fmt.Printf("%-28s solved=%-5v gens=%-4d restarts=%d panics=%d timeouts=%d dead=%v\n",
		label, r.Solved, r.Generations, r.Restarts, r.PanicsRecovered, r.HeartbeatTimeouts, r.DeadDemes)
	for _, f := range r.Failures {
		fmt.Printf("%-28s   deme %d failed at gen %d (%s), restarted=%v\n", "", f.Deme, f.Gen, f.Kind, f.Restarted)
	}
	fmt.Println()
}
