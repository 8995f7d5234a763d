package pga_test

import (
	"fmt"

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
