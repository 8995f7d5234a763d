package pga_test

import (
	"fmt"
	"time"

	"pga"
)

// ExampleNewGenerational shows the minimal sequential run: OneMax solved
// by a generational GA.
func ExampleNewGenerational() {
	prob := pga.OneMax(32)
	e := pga.NewGenerational(pga.GAConfig{
		Problem:   prob,
		PopSize:   40,
		Crossover: pga.UniformCrossover{},
		Mutator:   pga.BitFlip{},
		RNG:       pga.NewRNG(1),
	})
	res := pga.Run(e, pga.RunOptions{Stop: pga.AnyOf{pga.MaxGenerations(200), pga.Target(prob)}})
	fmt.Println(res.Solved, res.BestFitness)
	// Output: true 32
}

// ExampleNewIslands shows the coarse-grained island model: four demes on
// a ring with periodic migration.
func ExampleNewIslands() {
	prob := pga.OneMax(32)
	m := pga.NewIslands(pga.IslandConfig{
		Demes:    4,
		Topology: pga.Ring,
		GA: pga.GAConfig{
			Problem:   prob,
			PopSize:   15,
			Crossover: pga.UniformCrossover{},
			Mutator:   pga.BitFlip{},
		},
		Migration: pga.Migration{Interval: 5, Count: 1},
		Seed:      1,
	})
	res := m.RunSequential(pga.AnyOf{pga.MaxGenerations(200), pga.Target(prob)}, pga.Control{})
	fmt.Println(res.Solved, res.BestFitness)
	// Output: true 32
}

// ExampleNewFarm shows the global master–slave model: the same GA with
// fitness evaluation farmed to parallel workers.
func ExampleNewFarm() {
	prob := pga.OneMax(32)
	farm := pga.NewFarm(1, pga.UniformWorkers(4))
	e := pga.NewGenerational(pga.GAConfig{
		Problem:   prob,
		PopSize:   40,
		Crossover: pga.UniformCrossover{},
		Mutator:   pga.BitFlip{},
		Evaluator: farm,
		RNG:       pga.NewRNG(1),
	})
	res := pga.Run(e, pga.RunOptions{Stop: pga.AnyOf{pga.MaxGenerations(200), pga.Target(prob)}})
	fmt.Println(res.Solved, farm.Evaluations() == res.Evaluations)
	// Output: true true
}

// ExampleTarget shows the stop condition built from a problem's known
// optimum.
func ExampleTarget() {
	prob := pga.OneMax(8)
	stop := pga.Target(prob)
	fmt.Println(stop.Done(pga.Status{BestFitness: 7}), stop.Done(pga.Status{BestFitness: 8}))
	// Output: false true
}

// ExampleBuildSpec builds a run from a JSON spec — the route every model
// and every registry problem takes, and what `pgarun -config` runs. The
// spec's island run is draw-identical to the same islands wired by hand.
func ExampleBuildSpec() {
	doc := []byte(`{
		"model": "islands",
		"problem": {"name": "onemax", "size": 128},
		"engine": {"pop": 25, "crossover": {"name": "uniform"}, "mutator": {"name": "bitflip"}},
		"islands": {"demes": 8, "migration": {"interval": 10, "count": 2}},
		"budget": {"generations": 500, "target_optimum": true},
		"seed": 42
	}`)
	sp, err := pga.ParseSpec(doc)
	if err != nil {
		panic(err)
	}
	b, err := pga.BuildSpec(*sp)
	if err != nil {
		panic(err)
	}
	rep := b.Run(pga.SpecRunOpts{})
	fmt.Printf("spec : best=%v gens=%d evals=%d migrations=%d\n",
		rep.Best, rep.Generations, rep.Evaluations, rep.Migrations)

	prob := pga.OneMax(128)
	res := pga.NewIslands(pga.IslandConfig{
		Demes:    8,
		Topology: pga.Ring,
		GA: pga.GAConfig{
			Problem:   prob,
			PopSize:   25,
			Crossover: pga.UniformCrossover{},
			Mutator:   pga.BitFlip{},
		},
		Migration: pga.Migration{Interval: 10, Count: 2},
		Seed:      42,
	}).RunSequential(pga.AnyOf{pga.MaxGenerations(500), pga.Target(prob)}, pga.Control{})
	fmt.Printf("hand : best=%v gens=%d evals=%d migrations=%d\n",
		res.BestFitness, res.Generations, res.Evaluations, res.Migrations)
	// Output:
	// spec : best=128 gens=44 evals=8648 migrations=32
	// hand : best=128 gens=44 evals=8648 migrations=32
}

// ExampleNewIslandsWithEngines composes two models the way the survey's
// §3.3 describes a cluster of SMPs — "a centralized model within each
// SMP machine, but running under a distributed model within machines in
// the cluster": four islands, each evaluating through its own 4-worker
// master–slave farm.
func ExampleNewIslandsWithEngines() {
	prob := pga.Rastrigin(10)
	stop := pga.AnyOf{pga.MaxGenerations(300), pga.TargetFitness{Target: 0.01, Dir: pga.Minimize}}

	farms := make([]*pga.Farm, 4)
	hybrid := pga.NewIslandsWithEngines(
		pga.IslandConfig{Demes: 4, Topology: pga.BiRing, Migration: pga.Migration{Interval: 10, Count: 2}, Seed: 21},
		func(deme int, r *pga.RNG) pga.Engine {
			farms[deme] = pga.NewFarm(uint64(deme)+100, pga.UniformWorkers(4))
			return pga.NewGenerational(pga.GAConfig{
				Problem:   prob,
				PopSize:   40,
				Crossover: pga.SBXCrossover{},
				Mutator:   pga.PolynomialMutation{},
				Evaluator: farms[deme],
				RNG:       r,
			})
		})
	res := hybrid.RunSequential(stop, pga.Control{})
	fmt.Printf("best=%.6f gens=%d evals=%d migrations=%d\n",
		res.BestFitness, res.Generations, res.Evaluations, res.Migrations)
	for i, f := range farms {
		fmt.Printf("island %d farm: %d evaluations across %d workers\n", i, f.Evaluations(), f.Workers())
	}
	// Output:
	// best=0.008641 gens=232 evals=36352 migrations=184
	// island 0 farm: 9088 evaluations across 4 workers
	// island 1 farm: 9088 evaluations across 4 workers
	// island 2 farm: 9088 evaluations across 4 workers
	// island 3 farm: 9088 evaluations across 4 workers
}

// ExampleCaptureCheckpoint runs a GA for 25 of 60 generations, snapshots
// it (population plus RNG stream), restores the snapshot into a freshly
// built engine and finishes the run there. The resumed run ends exactly
// where an uninterrupted one does — the long-run resilience GALOPPS was
// known for among the survey's Table 1 libraries.
func ExampleCaptureCheckpoint() {
	prob := pga.OneMax(128)
	newEngine := func(r *pga.RNG) pga.Engine {
		return pga.NewGenerational(pga.GAConfig{
			Problem:   prob,
			PopSize:   60,
			Crossover: pga.UniformCrossover{},
			Mutator:   pga.BitFlip{},
			RNG:       r,
		})
	}

	ref := newEngine(pga.NewRNG(42))
	for g := 0; g < 60; g++ {
		ref.Step()
	}

	r1 := pga.NewRNG(42)
	e1 := newEngine(r1)
	for g := 0; g < 25; g++ {
		e1.Step()
	}
	cp, err := pga.CaptureCheckpoint(e1.Population(), r1, 25, e1.Evaluations())
	if err != nil {
		panic(err)
	}
	blob, err := cp.Marshal()
	if err != nil {
		panic(err)
	}

	loaded, err := pga.LoadCheckpoint(blob)
	if err != nil {
		panic(err)
	}
	r2 := pga.NewRNG(0) // building the engine consumes this stream...
	e2 := newEngine(r2)
	pop, err := loaded.Restore(r2) // ...then Restore rewinds it to the snapshot
	if err != nil {
		panic(err)
	}
	e2.(interface{ SetPopulation(*pga.Population) }).SetPopulation(pop)
	for g := loaded.Generation; g < 60; g++ {
		e2.Step()
	}

	want, got := ref.Population(), e2.Population()
	fmt.Printf("reference best=%v, resumed best=%v\n", want.BestFitness(pga.Maximize), got.BestFitness(pga.Maximize))
	fmt.Println("bit-identical resume:",
		got.BestFitness(pga.Maximize) == want.BestFitness(pga.Maximize) && got.MeanFitness() == want.MeanFitness())
	// Output:
	// reference best=127, resumed best=127
	// bit-identical resume: true
}

// ExampleNewFarm_faults runs the same seeded GA on master–slave farms in
// an increasingly hostile machine room: heterogeneous speeds, flaky
// workers, workers that die, and a farm that loses every worker. The GA
// never notices — every run evaluates the same individuals and solves —
// and only the redispatch overhead and the load balance change: Gagné et
// al.'s transparency, robustness and adaptivity.
func ExampleNewFarm_faults() {
	run := func(label string, workers []pga.WorkerSpec) {
		prob := pga.OneMax(96)
		farm := pga.NewFarm(11, workers)
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
		fmt.Printf("%-22s solved=%v evals=%d redispatched=%d dead=%d/%d tasks=%v\n",
			label, res.Solved, res.Evaluations, st.Redispatched, st.DeadWorkers, farm.Workers(), st.TasksPerWorker)
	}

	run("8 healthy workers", pga.UniformWorkers(8))

	het := pga.UniformWorkers(8)
	for i := range het {
		het[i].Speed = 0.5 + float64(i)*0.4 // faster workers take more tasks
	}
	run("heterogeneous speeds", het)

	flaky := pga.UniformWorkers(8)
	for i := 0; i < 4; i++ {
		flaky[i].FailProb = 0.3 // 30% of attempts fail, nothing dies
	}
	run("4 flaky workers", flaky)

	dying := pga.UniformWorkers(8)
	for i := 0; i < 6; i++ {
		dying[i] = pga.WorkerSpec{Speed: 1, FailProb: 0.5, MaxFailures: 2}
	}
	run("6 of 8 workers die", dying)

	doomed := make([]pga.WorkerSpec, 4)
	for i := range doomed {
		doomed[i] = pga.WorkerSpec{Speed: 1, FailProb: 1, MaxFailures: 1}
	}
	run("all workers die", doomed) // the master evaluates the rest itself
	// Output:
	// 8 healthy workers      solved=true evals=2608 redispatched=0 dead=0/8 tasks=[330 330 330 330 330 330 330 298]
	// heterogeneous speeds   solved=true evals=2608 redispatched=0 dead=0/8 tasks=[66 164 230 297 364 430 496 561]
	// 4 flaky workers        solved=true evals=2608 redispatched=496 dead=0/8 tasks=[328 283 263 277 378 376 371 332]
	// 6 of 8 workers die     solved=true evals=2608 redispatched=40 dead=6/8 tasks=[6 1 5 1 0 7 1310 1278]
	// all workers die        solved=true evals=2608 redispatched=80 dead=4/4 tasks=[0 0 0 0]
}

// supervisedIslands runs a supervised 4-deme ring on OneMax under the
// given resilience tuning and fault script, and prints what the
// supervisor saw.
func supervisedIslands(label string, res *pga.Resilience, plan *pga.FaultPlan) {
	prob := pga.OneMax(64)
	r := pga.NewIslands(pga.IslandConfig{
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
	}).RunParallel(pga.AnyOf{pga.MaxGenerations(400), pga.Target(prob)}, pga.Control{})
	fmt.Printf("%-24s solved=%v gens=%d restarts=%d panics=%d timeouts=%d dead=%v\n",
		label, r.Solved, r.Generations, r.Restarts, r.PanicsRecovered, r.HeartbeatTimeouts, r.DeadDemes)
	for _, f := range r.Failures {
		fmt.Printf("  deme %d failed at gen %d (%s), restarted=%v\n", f.Deme, f.Gen, f.Kind, f.Restarted)
	}
}

// ExampleNewFaultPlan runs one seeded parallel island run three times:
// fault-free, with a deme panic the supervisor recovers by restarting the
// deme from its last checkpoint, and with a deme that dies for good when
// restarts are disabled, so the ring heals around it. No Heartbeat is
// set, so steps run inline with no timer and the output depends on the
// seed alone.
func ExampleNewFaultPlan() {
	supervisedIslands("fault-free", &pga.Resilience{CheckpointEvery: 5, MaxRestarts: 3}, nil)
	supervisedIslands("deme 1 panics",
		&pga.Resilience{CheckpointEvery: 5, MaxRestarts: 3},
		pga.NewFaultPlan().PanicAt(1, 6))
	supervisedIslands("deme 3 dies permanently",
		&pga.Resilience{CheckpointEvery: 5, MaxRestarts: -1},
		pga.NewFaultPlan().PanicAt(3, 8))
	// Output:
	// fault-free               solved=true gens=22 restarts=0 panics=0 timeouts=0 dead=[]
	// deme 1 panics            solved=true gens=22 restarts=1 panics=1 timeouts=0 dead=[]
	//   deme 1 failed at gen 6 (panic), restarted=true
	// deme 3 dies permanently  solved=true gens=25 restarts=0 panics=1 timeouts=0 dead=[3]
	//   deme 3 failed at gen 8 (panic), restarted=false
}

// ExampleResilience adds hang detection: deme 2 stalls for 90 ms at
// generation 9, past its 30 ms heartbeat, and is abandoned and
// restarted. Whether a deme misses its heartbeat depends on the
// scheduler as well as on the plan — with 24 copies running at once on
// a two-core host, one run in 24 also timed out a healthy deme — so
// this example pins no output. Experiment E15 measures hang detection.
func ExampleResilience() {
	supervisedIslands("panic + hang",
		&pga.Resilience{CheckpointEvery: 5, MaxRestarts: 3, Heartbeat: 30 * time.Millisecond},
		pga.NewFaultPlan().PanicAt(1, 6).HangAt(2, 9, 90*time.Millisecond))
}
