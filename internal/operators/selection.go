// Package operators implements the genetic operators of the library:
// parent selection, crossover and mutation, for all four genome
// representations in internal/genome.
//
// All operators draw randomness exclusively from the *rng.Source passed to
// them, so engines that hold per-deme sources stay deterministic under
// parallel execution.
package operators

import (
	"fmt"

	"pga/internal/core"
	"pga/internal/rng"
)

// Selector picks the index of one parent from a population.
type Selector interface {
	// Name identifies the selector in tables and logs.
	Name() string
	// Select returns the index of the chosen individual. The population
	// must be non-empty and fully evaluated. s supplies working memory: a
	// planning selector (plan.go) picks under the scratch's live plan, or
	// plans, picks and unplans when there is none.
	Select(pop *core.Population, d core.Direction, r *rng.Source, s *Scratch) int
}

// Tournament is k-tournament selection: draw K individuals uniformly with
// replacement and return the best.
type Tournament struct {
	// K is the tournament size; larger K means higher selection pressure.
	K int
}

// Name implements Selector.
func (t Tournament) Name() string { return fmt.Sprintf("tournament(%d)", t.K) }

// Select implements Selector.
func (t Tournament) Select(pop *core.Population, d core.Direction, r *rng.Source, _ *Scratch) int {
	k := t.K
	if k < 1 {
		k = 2
	}
	best := r.Intn(pop.Len())
	for i := 1; i < k; i++ {
		c := r.Intn(pop.Len())
		if d.Better(pop.Members[c].Fitness, pop.Members[best].Fitness) {
			best = c
		}
	}
	return best
}

// Roulette is fitness-proportionate selection. Fitness values are shifted
// so the worst member has a small positive weight; minimisation problems
// are handled by inverting the scale. This is the classic Goldberg wheel
// with windowing, robust to negative fitness.
type Roulette struct{}

// Name implements Selector.
func (Roulette) Name() string { return "roulette" }

// LinearRank is linear ranking selection with selective pressure SP in
// [1, 2]: the best individual is sampled SP times as often as average.
type LinearRank struct {
	// SP is the selection pressure; the canonical default is 1.5.
	SP float64
}

// Name implements Selector.
func (s LinearRank) Name() string { return fmt.Sprintf("rank(%.2g)", s.sp()) }

func (s LinearRank) sp() float64 {
	if s.SP < 1 || s.SP > 2 {
		return 1.5
	}
	return s.SP
}

// Truncation selects uniformly among the best Frac fraction of the
// population (at least one individual).
type Truncation struct {
	// Frac in (0, 1]; the canonical default is 0.5.
	Frac float64
}

// Name implements Selector.
func (s Truncation) Name() string { return fmt.Sprintf("truncation(%.2g)", s.frac()) }

func (s Truncation) frac() float64 {
	if s.Frac <= 0 || s.Frac > 1 {
		return 0.5
	}
	return s.Frac
}

// Random selects uniformly, ignoring fitness (no selection pressure; the
// control arm of selection-pressure experiments).
type Random struct{}

// Name implements Selector.
func (Random) Name() string { return "random" }

// Select implements Selector.
func (Random) Select(pop *core.Population, d core.Direction, r *rng.Source, _ *Scratch) int {
	return r.Intn(pop.Len())
}

// Best deterministically selects the population's best member (maximum
// pressure; used in takeover-time experiments).
type Best struct{}

// Name implements Selector.
func (Best) Name() string { return "best" }

// Select implements Selector.
func (Best) Select(pop *core.Population, d core.Direction, r *rng.Source, _ *Scratch) int {
	return pop.Best(d)
}
