// Quickstart: solve OneMax four ways — a sequential GA, an island-model
// PGA, a master–slave PGA, and the same island run built from a
// declarative JSON spec — using only the public pga API.
package main

import (
	"fmt"

	"pga"
)

func main() {
	prob := pga.OneMax(128)
	stop := pga.AnyOf{pga.MaxGenerations(500), pga.Target(prob)}

	// 1. Sequential baseline.
	seq := pga.NewGenerational(pga.GAConfig{
		Problem:   prob,
		PopSize:   100,
		Crossover: pga.UniformCrossover{},
		Mutator:   pga.BitFlip{},
		RNG:       pga.NewRNG(42),
	})
	res := pga.Run(seq, pga.RunOptions{Stop: stop})
	fmt.Printf("sequential : best=%v gens=%d evals=%d solved=%v\n",
		res.BestFitness, res.Generations, res.Evaluations, res.Solved)

	// 2. Island model: 8 demes on a ring, migration every 10 generations.
	isl := pga.NewIslands(pga.IslandConfig{
		Demes:    8,
		Topology: pga.Ring,
		GA: pga.GAConfig{
			Problem:   prob,
			PopSize:   25, // 8 × 25 = 200 total
			Crossover: pga.UniformCrossover{},
			Mutator:   pga.BitFlip{},
		},
		Migration: pga.Migration{Interval: 10, Count: 2},
		Seed:      42,
	})
	ires := isl.RunSequential(stop, pga.Control{})
	fmt.Printf("islands    : best=%v gens=%d evals=%d solved=%v migrations=%d\n",
		ires.BestFitness, ires.Generations, ires.Evaluations, ires.Solved, ires.Migrations)

	// 3. Master–slave: the same GA, fitness farmed to 4 parallel workers.
	farm := pga.NewFarm(42, pga.UniformWorkers(4))
	ms := pga.NewGenerational(pga.GAConfig{
		Problem:   prob,
		PopSize:   100,
		Crossover: pga.UniformCrossover{},
		Mutator:   pga.BitFlip{},
		Evaluator: farm,
		RNG:       pga.NewRNG(42),
	})
	mres := pga.Run(ms, pga.RunOptions{Stop: pga.AnyOf{pga.MaxGenerations(500), pga.Target(prob)}})
	fmt.Printf("masterslave: best=%v gens=%d evals=%d solved=%v (farm evals=%d)\n",
		mres.BestFitness, mres.Generations, mres.Evaluations, mres.Solved, farm.Evaluations())

	// 4. The same island run, declaratively: one JSON spec builds the
	// runtime (this is what `pgarun -config` runs). Draw-identical to the
	// hand-wired island model above — same best, same counts.
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
	fmt.Printf("spec       : best=%v gens=%d evals=%d solved=%v migrations=%d\n",
		rep.Best, rep.Generations, rep.Evaluations, rep.Solved, rep.Migrations)
}
