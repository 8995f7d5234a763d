// TSP with island PGAs: defines a travelling-salesman Problem against the
// public API (showing how users plug in their own domains), then compares
// a sequential GA with ring-of-islands PGAs at the same evaluation
// budget — the routing application class of the survey's §4.
package main

import (
	"fmt"
	"math"

	"pga"
)

// tsp is a user-defined Problem: closed-tour length over a permutation.
type tsp struct {
	xs, ys []float64
}

// newCircleTSP places n cities on a circle; the optimal tour follows the
// circle and has length 2·n·sin(π/n), so we can check how close we get.
func newCircleTSP(n int) *tsp {
	t := &tsp{}
	for i := 0; i < n; i++ {
		a := 2 * math.Pi * float64(i) / float64(n)
		t.xs = append(t.xs, math.Cos(a))
		t.ys = append(t.ys, math.Sin(a))
	}
	return t
}

func (t *tsp) optimum() float64 {
	n := float64(len(t.xs))
	return 2 * n * math.Sin(math.Pi/n)
}

func (t *tsp) Name() string             { return fmt.Sprintf("tsp(%d)", len(t.xs)) }
func (t *tsp) Direction() pga.Direction { return pga.Minimize }

func (t *tsp) NewGenome(r *pga.RNG) pga.Genome {
	return &pga.Permutation{Perm: r.Perm(len(t.xs))}
}

func (t *tsp) Evaluate(g pga.Genome) float64 {
	p := g.(*pga.Permutation).Perm
	total := 0.0
	for i := range p {
		j := (i + 1) % len(p)
		dx := t.xs[p[i]] - t.xs[p[j]]
		dy := t.ys[p[i]] - t.ys[p[j]]
		total += math.Sqrt(dx*dx + dy*dy)
	}
	return total
}

func main() {
	prob := newCircleTSP(40)
	budget := pga.MaxEvaluations(60000)
	fmt.Printf("%s — optimal tour length %.4f, budget %d evaluations\n\n",
		prob.Name(), prob.optimum(), int64(budget))

	// Sequential baseline.
	seq := pga.NewGenerational(pga.GAConfig{
		Problem:   prob,
		PopSize:   120,
		Crossover: pga.OXCrossover{},
		Mutator:   pga.InversionMutation{},
		RNG:       pga.NewRNG(7),
	})
	res := pga.Run(seq, pga.RunOptions{Stop: budget})
	fmt.Printf("sequential GA       : tour %.4f  (%.2f%% above optimum)\n",
		res.BestFitness, 100*(res.BestFitness/prob.optimum()-1))

	// Islands at several deme counts, same total budget.
	for _, demes := range []int{4, 8} {
		m := pga.NewIslands(pga.IslandConfig{
			Demes:    demes,
			Topology: pga.BiRing,
			GA: pga.GAConfig{
				Problem:   prob,
				PopSize:   120 / demes,
				Crossover: pga.OXCrossover{},
				Mutator:   pga.InversionMutation{},
			},
			Migration: pga.Migration{Interval: 10, Count: 2},
			Seed:      7,
		})
		ires := m.RunSequential(budget, pga.Control{})
		fmt.Printf("islands (%d × %3d)   : tour %.4f  (%.2f%% above optimum, %d migrations)\n",
			demes, 120/demes, ires.BestFitness,
			100*(ires.BestFitness/prob.optimum()-1), ires.Migrations)
	}
}
