package operators

import (
	"pga/internal/core"
	"pga/internal/genome"
	"pga/internal/rng"
)

// TakeoverTime measures the selection intensity of a panmictic selector
// the standard way (Goldberg & Deb; the panmictic counterpart of the
// cellular takeover experiment in internal/cellular): a population of
// popSize individuals starts with exactly one copy of the best fitness
// (1.0, all others 0.5 — a bounded ratio, so proportionate selection is
// measured in its intended regime rather than its divide-by-zero
// pathology); each generation a new population is formed by selection
// alone — no variation — until the best fitness occupies the whole
// population. As in the deterministic growth models of the literature,
// the best is guarded against drift extinction (one copy is re-seeded if
// selection loses it), so the measurement reflects pressure, not drift
// luck. Returns the mean generations over the given runs, or maxGens when
// takeover never completes (e.g. for the Random selector).
func TakeoverTime(sel Selector, popSize, runs, maxGens int, seed uint64) float64 {
	total := 0.0
	for run := 0; run < runs; run++ {
		r := rng.New(seed + uint64(run)*7919)
		pop := takeoverPopulation(popSize)
		gens := 0
		for ; gens < maxGens; gens++ {
			if countBest(pop) == popSize {
				break
			}
			pop = takeoverStep(sel, pop, r)
		}
		total += float64(gens)
	}
	return total / float64(runs)
}

// takeoverStep forms the next selection-only generation with the
// extinction guard applied.
func takeoverStep(sel Selector, pop *core.Population, r *rng.Source) *core.Population {
	n := pop.Len()
	next := core.NewPopulation(n)
	var s Scratch
	s.Plan(sel, pop, core.Maximize)
	for i := 0; i < n; i++ {
		pick := SelectWith(sel, pop, core.Maximize, r, &s)
		next.Members = append(next.Members, pop.Members[pick].Clone())
	}
	if countBest(next) == 0 {
		next.Members[0] = &core.Individual{Genome: genome.NewBitString(1), Fitness: 1, Evaluated: true}
	}
	return next
}

// TakeoverCurve returns the best-fitness proportion after each generation
// of a single selection-only run (index 0 = initial state).
func TakeoverCurve(sel Selector, popSize, maxGens int, seed uint64) []float64 {
	r := rng.New(seed)
	pop := takeoverPopulation(popSize)
	curve := []float64{float64(countBest(pop)) / float64(popSize)}
	for g := 0; g < maxGens && countBest(pop) < popSize; g++ {
		pop = takeoverStep(sel, pop, r)
		curve = append(curve, float64(countBest(pop))/float64(popSize))
	}
	return curve
}

// takeoverPopulation builds the canonical initial state: one individual
// of fitness 1, the rest fitness 0.5 (genomes are irrelevant
// placeholders).
func takeoverPopulation(popSize int) *core.Population {
	pop := core.NewPopulation(popSize)
	for i := 0; i < popSize; i++ {
		ind := core.NewIndividual(genome.NewBitString(1))
		ind.Evaluated = true
		ind.Fitness = 0.5
		if i == 0 {
			ind.Fitness = 1
		}
		pop.Members = append(pop.Members, ind)
	}
	return pop
}

// countBest counts individuals carrying the best fitness.
func countBest(pop *core.Population) int {
	n := 0
	for _, ind := range pop.Members {
		if ind.Fitness == 1 {
			n++
		}
	}
	return n
}
