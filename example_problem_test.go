package pga_test

import (
	"fmt"
	"math"

	"pga"
)

// tsp is a user-defined Problem: the length of a closed tour through
// cities, over a permutation genome. Minimised.
type tsp struct {
	xs, ys []float64
}

// newCircleTSP places n cities on a unit circle. The optimal tour
// follows the circle, so its length 2·n·sin(π/n) is known.
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

// Example_customProblem plugs a fitness function of your own into the
// library — here a travelling-salesman tour, the routing application
// class of the survey's §4 — and compares a sequential GA with
// ring-of-islands PGAs at the same evaluation budget. A registry cannot
// name a user's own Problem, so this path goes through the Go
// constructors rather than a run spec.
func Example_customProblem() {
	prob := newCircleTSP(40)
	budget := pga.MaxEvaluations(60000)
	fmt.Printf("%s: optimal tour %.4f, budget %d evaluations\n", prob.Name(), prob.optimum(), int64(budget))

	seq := pga.NewGenerational(pga.GAConfig{
		Problem:   prob,
		PopSize:   120,
		Crossover: pga.OXCrossover{},
		Mutator:   pga.InversionMutation{},
		RNG:       pga.NewRNG(7),
	})
	res := pga.Run(seq, pga.RunOptions{Stop: budget})
	fmt.Printf("sequential GA     : tour %.4f (%.2f%% above optimum)\n",
		res.BestFitness, 100*(res.BestFitness/prob.optimum()-1))

	for _, demes := range []int{4, 8} {
		ires := pga.NewIslands(pga.IslandConfig{
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
		}).RunSequential(budget, pga.Control{})
		fmt.Printf("islands (%d × %3d) : tour %.4f (%.2f%% above optimum, %d migrations)\n",
			demes, 120/demes, ires.BestFitness, 100*(ires.BestFitness/prob.optimum()-1), ires.Migrations)
	}
	// Output:
	// tsp(40): optimal tour 6.2767, budget 60000 evaluations
	// sequential GA     : tour 19.2113 (206.07% above optimum)
	// islands (4 ×  30) : tour 12.1232 (93.15% above optimum, 408 migrations)
	// islands (8 ×  15) : tour 8.1443 (29.75% above optimum, 848 migrations)
}
