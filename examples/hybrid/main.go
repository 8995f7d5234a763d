// Hybrid model: the survey's §3.3 describes the cluster-of-SMPs pattern —
// "a centralized model within each SMP machine, but running under a
// distributed model within machines in the cluster". This example
// composes the library's models the same way: an island (distributed)
// model whose demes each evaluate fitness through their own master–slave
// farm (centralized), all from the public API.
package main

import (
	"fmt"

	"pga"
)

func main() {
	prob := pga.Rastrigin(10)
	stop := pga.AnyOf{pga.MaxGenerations(300), pga.TargetFitness{Target: 0.01, Dir: pga.Minimize}}

	// Four "machines" (islands), each an SMP with a 4-worker farm.
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

	fmt.Println("hybrid model: 4 islands (distributed) × 4-worker farms (centralized)")
	fmt.Printf("rastrigin(10): best=%.6f gens=%d evals=%d migrations=%d\n",
		res.BestFitness, res.Generations, res.Evaluations, res.Migrations)
	for i, f := range farms {
		fmt.Printf("  island %d farm: %d evaluations across %d workers\n", i, f.Evaluations(), f.Workers())
	}
}
