// Package ga implements the sequential genetic-algorithm engines of the
// library: the generational GA (with optional generation gap and elitism)
// and the steady-state GA.
//
// These are both the baseline of every parallel comparison in the
// experiment suite and the inner loop run inside each island deme — the
// "panmictic (steady-state or generational)" evolution schemes whose
// island-level comparison Alba & Troya (2002) carried out and the survey
// reviews in §2.
package ga

import (
	"fmt"
	"sort"

	"pga/internal/core"
	"pga/internal/operators"
	"pga/internal/rng"
)

// Engine is one evolving population that can be advanced step by step.
// A step is one "generation equivalent": a full generation for the
// generational engine, PopSize births for the steady-state engine, one
// grid sweep for the cellular engine (internal/cellular).
//
// The Population accessor exposes the live population so that migration
// (internal/island) can exchange individuals between steps.
type Engine interface {
	// Name identifies the engine configuration.
	Name() string
	// Step advances the population by one generation equivalent.
	Step()
	// Population returns the live population (mutable between steps).
	Population() *core.Population
	// Problem returns the problem being optimised.
	Problem() core.Problem
	// Evaluations returns the cumulative number of fitness evaluations.
	Evaluations() int64
}

// Config collects the knobs shared by the sequential engines. Zero values
// select canonical defaults (documented per field).
type Config struct {
	// Problem is the optimisation problem (required).
	Problem core.Problem
	// PopSize is the population size; default 100.
	PopSize int
	// Selector chooses parents; default Tournament{K: 2}.
	Selector operators.Selector
	// Crossover recombines parents; nil evolves by mutation only.
	Crossover operators.Crossover
	// CrossoverRate is the probability a selected pair is recombined
	// rather than copied; default 0.9.
	CrossoverRate float64
	// Mutator perturbs offspring; nil disables mutation.
	Mutator operators.Mutator
	// Elitism is the number of best individuals copied unchanged into the
	// next generation (generational engine only); default 1. Set to -1 for
	// no elitism.
	Elitism int
	// GenGap is the fraction of the population replaced each generation
	// (generational engine only); default 1.0 — Bethke (1976)'s
	// generational-gap GA is obtained with GenGap < 1.
	GenGap float64
	// ReplaceWorst selects steady-state replacement of the current worst
	// individual; when false a random individual is replaced
	// (steady-state engine only). Default true (set via NewSteadyState).
	ReplaceWorst bool
	// Evaluator performs fitness evaluations; default a SerialEvaluator.
	// The master–slave model plugs its parallel farm in here.
	Evaluator core.Evaluator
	// RNG is the engine's random stream (required; use rng.New or a
	// Split from a parent stream for parallel determinism).
	RNG *rng.Source
}

// withDefaults returns a copy of c with zero values replaced by defaults.
func (c Config) withDefaults() Config {
	if c.PopSize == 0 {
		c.PopSize = 100
	}
	if c.Selector == nil {
		c.Selector = operators.Tournament{K: 2}
	}
	if c.CrossoverRate == 0 {
		c.CrossoverRate = 0.9
	}
	if c.GenGap == 0 {
		c.GenGap = 1.0
	}
	if c.Elitism == 0 {
		c.Elitism = 1
	}
	if c.Elitism == -1 {
		c.Elitism = 0
	}
	if c.Evaluator == nil {
		c.Evaluator = &core.SerialEvaluator{}
	}
	return c
}

func (c Config) validate() {
	if c.Problem == nil {
		panic("ga: Config.Problem is required")
	}
	if c.RNG == nil {
		panic("ga: Config.RNG is required")
	}
	if c.PopSize < 2 {
		panic("ga: PopSize must be at least 2")
	}
	if c.GenGap < 0 || c.GenGap > 1 {
		panic("ga: GenGap must be in [0,1]")
	}
	if c.Elitism < 0 || c.Elitism >= c.PopSize {
		panic("ga: Elitism must be in [0, PopSize)")
	}
}

// bestSorter sorts an index buffer best → worst under a direction without
// allocating (sort.Stable over a pointer receiver, unlike sort.SliceStable,
// performs no per-call allocation; both are stable, so the ordering matches
// the historical rankedIndices helper exactly).
type bestSorter struct {
	idx []int
	pop *core.Population
	dir core.Direction
}

func (s *bestSorter) Len() int      { return len(s.idx) }
func (s *bestSorter) Swap(i, j int) { s.idx[i], s.idx[j] = s.idx[j], s.idx[i] }
func (s *bestSorter) Less(a, b int) bool {
	return s.dir.Better(s.pop.Members[s.idx[a]].Fitness, s.pop.Members[s.idx[b]].Fitness)
}

// rankedInto fills the sorter's reusable index buffer with population
// indices ordered best → worst under dir and returns it.
func rankedInto(s *bestSorter, pop *core.Population, dir core.Direction) []int {
	n := pop.Len()
	if cap(s.idx) < n {
		s.idx = make([]int, n)
	}
	s.idx = s.idx[:n]
	for i := range s.idx {
		s.idx[i] = i
	}
	s.pop, s.dir = pop, dir
	sort.Stable(s)
	s.pop = nil // do not pin the population between steps
	return s.idx
}

// topInto returns the indices of the count best members, best → worst:
// rankedInto's first count entries, without the sort when that is at most
// one. Best takes the first member no other is strictly Better than —
// ties go to the lowest index — which is where the stable sort puts it.
func topInto(s *bestSorter, pop *core.Population, dir core.Direction, count int) []int {
	switch count {
	case 0:
		return nil
	case 1:
		if cap(s.idx) == 0 {
			s.idx = make([]int, 1)
		}
		s.idx = s.idx[:1]
		s.idx[0] = pop.Best(dir)
		return s.idx
	}
	return rankedInto(s, pop, dir)[:count]
}

// Generational is the classic generational GA: each step builds a new
// population from selected, recombined and mutated offspring, preserving
// Elitism top individuals; with GenGap < 1 only that fraction of the
// population is replaced and the best survivors fill the remainder.
//
// The engine double-buffers generations: offspring are written into a
// pooled shadow population whose Members slice is swapped with the live one
// at the end of each step, so the steady-state cost of Step is zero heap
// allocations (see perf_gate_test.go).
type Generational struct {
	cfg Config
	pop *core.Population
	dir core.Direction

	// next is the pooled shadow generation; spare absorbs the discarded
	// second child when an odd number of births is needed (the RNG draws
	// for it still happen, exactly as in the allocating implementation).
	next    *core.Population
	spare   *core.Individual
	ranker  bestSorter
	scratch operators.Scratch
	// two is the pooled state of the two-worker births (births.go), built
	// by the first generation that takes them.
	two *twoWorkers
}

var _ Engine = (*Generational)(nil)

// NewGenerational creates a generational engine with a random, evaluated
// initial population.
func NewGenerational(cfg Config) *Generational {
	cfg = cfg.withDefaults()
	cfg.validate()
	e := &Generational{cfg: cfg, dir: cfg.Problem.Direction()}
	e.pop = core.NewPopulation(cfg.PopSize)
	for i := 0; i < cfg.PopSize; i++ {
		e.pop.Members = append(e.pop.Members, core.NewIndividual(cfg.Problem.NewGenome(cfg.RNG)))
	}
	cfg.Evaluator.EvaluateAll(cfg.Problem, e.pop)
	return e
}

// Name implements Engine.
func (e *Generational) Name() string {
	if e.cfg.GenGap < 1 {
		return fmt.Sprintf("generational(gap=%.2g)", e.cfg.GenGap)
	}
	return "generational"
}

// Population implements Engine.
func (e *Generational) Population() *core.Population { return e.pop }

// Problem implements Engine.
func (e *Generational) Problem() core.Problem { return e.cfg.Problem }

// Evaluations implements Engine.
func (e *Generational) Evaluations() int64 { return e.cfg.Evaluator.Evaluations() }

// SetPopulation replaces the engine's population — the restore half of
// checkpointing (see internal/persist). The population must match the
// configured size and be fully evaluated.
func (e *Generational) SetPopulation(pop *core.Population) {
	if pop.Len() != e.cfg.PopSize {
		panic("ga: SetPopulation size mismatch")
	}
	for _, ind := range pop.Members {
		if !ind.Evaluated {
			panic("ga: SetPopulation requires an evaluated population")
		}
	}
	e.pop = pop
	// Genome shapes may have changed; rebuild the pooled buffers lazily.
	e.next = nil
	e.spare = nil
}

// ensureBuffers builds the pooled shadow generation on first use (and
// after SetPopulation). Cloning the live members gives every slot a genome
// of the right concrete type and length so later steps copy in place.
func (e *Generational) ensureBuffers() {
	if e.next != nil {
		return
	}
	n := e.cfg.PopSize
	e.next = core.NewPopulation(n)
	for i := 0; i < n; i++ {
		e.next.Members = append(e.next.Members, e.pop.Members[i].Clone())
	}
	e.spare = e.pop.Members[0].Clone()
}

// Step implements Engine. The RNG draw sequence — selection, crossover
// chance, crossover, mutation, in birth order — is identical to the
// historical allocating implementation, so seeded runs are reproducible
// across library versions; a generation bred on two workers (births.go)
// leaves the same children and the same stream state.
func (e *Generational) Step() {
	cfg := &e.cfg
	n := cfg.PopSize
	births := e.births()
	e.ensureBuffers()

	// Offspring fill next.Members[Elitism : Elitism+births]. e.pop is
	// read-only until the swap below, so the selector plans once for all
	// 2·births picks.
	e.scratch.Plan(cfg.Selector, e.pop, e.dir)
	if !e.breedTwo(births) {
		e.breedAll(births)
	}
	e.scratch.Unplan()

	// The members that live on, best → worst: the elite and, with GenGap
	// < 1, the survivors of the slots no birth fills.
	ranked := topInto(&e.ranker, e.pop, e.dir, n-births)
	// Elites survive unchanged.
	for i := 0; i < cfg.Elitism; i++ {
		e.next.Members[i].CopyFrom(e.pop.Members[ranked[i]])
	}
	// GenGap < 1: the best non-elite survivors keep their slots.
	slot := cfg.Elitism + births
	for i := cfg.Elitism; slot < n && i < len(ranked); i++ {
		e.next.Members[slot].CopyFrom(e.pop.Members[ranked[i]])
		slot++
	}
	// Swap buffers. Swapping the Members slices (not the *Population
	// pointers) keeps Population() stable for callers that hold it across
	// steps, e.g. the island model's migration.
	e.pop.Members, e.next.Members = e.next.Members, e.pop.Members
	cfg.Evaluator.EvaluateAll(cfg.Problem, e.pop)
}

// births is the number of offspring a generation makes: the GenGap share
// of the population, at least one, never into the elite's slots.
func (e *Generational) births() int {
	cfg := &e.cfg
	return min(max(int(cfg.GenGap*float64(cfg.PopSize)), 1), cfg.PopSize-cfg.Elitism)
}

// breedAll is the serial birth loop: pair by pair, pickPair and breed,
// both on the engine stream.
func (e *Generational) breedAll(births int) {
	for made := 0; made < births; made += 2 {
		i, j, crossed := e.pickPair(e.cfg.RNG)
		e.breed(i, j, crossed, made, births, e.cfg.RNG, &e.scratch)
	}
}

// pickPair makes a pair's two selections, under the generation's
// selection plan, and its crossover chance, drawing on r. The serial
// loop and the two-worker plan pass (births.go) both call it, so they
// draw the same.
func (e *Generational) pickPair(r *rng.Source) (i, j int, crossed bool) {
	cfg := &e.cfg
	i = operators.SelectWith(cfg.Selector, e.pop, e.dir, r, &e.scratch)
	j = operators.SelectWith(cfg.Selector, e.pop, e.dir, r, &e.scratch)
	crossed = cfg.Crossover != nil && r.Chance(cfg.CrossoverRate)
	return i, j, crossed
}

// breed writes the pair of children whose first is birth made, from
// parents i and j: crossed or copied, then both mutated, drawing on r.
// The dangling second child of a final odd pair lands in the spare slot
// so its RNG draws still happen. It writes nothing but the two children,
// so pairs on streams of their own may be bred concurrently.
func (e *Generational) breed(i, j int, crossed bool, made, births int, r *rng.Source, s *operators.Scratch) {
	cfg := &e.cfg
	pa, pb := e.pop.Members[i], e.pop.Members[j]
	c1 := e.next.Members[cfg.Elitism+made]
	c2 := e.spare
	if made+1 < births {
		c2 = e.next.Members[cfg.Elitism+made+1]
	}
	if crossed {
		operators.CrossInto(cfg.Crossover, pa.Genome, pb.Genome, c1, c2, r, s)
	} else {
		c1.Genome = core.CopyGenome(c1.Genome, pa.Genome)
		c2.Genome = core.CopyGenome(c2.Genome, pb.Genome)
	}
	if cfg.Mutator != nil {
		cfg.Mutator.Mutate(c1.Genome, r)
		cfg.Mutator.Mutate(c2.Genome, r)
	}
	c1.Evaluated = false
	c2.Evaluated = false
}

// SteadyState is the steady-state GA: each birth selects two parents,
// produces one child, and inserts it back into the population immediately,
// so good genes spread within a "generation". One Step performs PopSize
// births to stay comparable with a generational step.
type SteadyState struct {
	cfg Config
	pop *core.Population
	dir core.Direction
	// birthEvals counts evaluations performed directly by birth, which
	// bypass the Evaluator interface (one genome at a time).
	birthEvals int64

	// child is the pooled buffer the next offspring is written into; on a
	// successful insertion the evicted individual is recycled as the new
	// buffer, so births are allocation-free at steady state. discard
	// absorbs the unused second child of the crossover.
	child   *core.Individual
	discard *core.Individual
	scratch operators.Scratch

	// best and worst are the indices pop.Best and pop.Worst would return,
	// found at the top of each Step and kept current across its births
	// (worst only under ReplaceWorst).
	best, worst int
}

var _ Engine = (*SteadyState)(nil)

// NewSteadyState creates a steady-state engine with a random, evaluated
// initial population. Unless cfg.ReplaceWorst is set explicitly the
// canonical replace-worst policy is used.
func NewSteadyState(cfg Config, replaceWorst bool) *SteadyState {
	cfg.ReplaceWorst = replaceWorst
	cfg = cfg.withDefaults()
	cfg.validate()
	e := &SteadyState{cfg: cfg, dir: cfg.Problem.Direction()}
	e.pop = core.NewPopulation(cfg.PopSize)
	for i := 0; i < cfg.PopSize; i++ {
		e.pop.Members = append(e.pop.Members, core.NewIndividual(cfg.Problem.NewGenome(cfg.RNG)))
	}
	cfg.Evaluator.EvaluateAll(cfg.Problem, e.pop)
	return e
}

// Name implements Engine.
func (e *SteadyState) Name() string {
	if e.cfg.ReplaceWorst {
		return "steady-state(worst)"
	}
	return "steady-state(random)"
}

// Population implements Engine.
func (e *SteadyState) Population() *core.Population { return e.pop }

// Problem implements Engine.
func (e *SteadyState) Problem() core.Problem { return e.cfg.Problem }

// Evaluations implements Engine.
func (e *SteadyState) Evaluations() int64 { return e.cfg.Evaluator.Evaluations() + e.birthEvals }

// SetPopulation replaces the engine's population — the restore half of
// checkpointing (see internal/persist). The population must match the
// configured size and be fully evaluated.
func (e *SteadyState) SetPopulation(pop *core.Population) {
	if pop.Len() != e.cfg.PopSize {
		panic("ga: SetPopulation size mismatch")
	}
	for _, ind := range pop.Members {
		if !ind.Evaluated {
			panic("ga: SetPopulation requires an evaluated population")
		}
	}
	e.pop = pop
	// Genome shapes may have changed; rebuild the pooled buffers lazily.
	e.child = nil
	e.discard = nil
}

// ensureBuffers builds the pooled child buffers on first use (and after
// SetPopulation).
func (e *SteadyState) ensureBuffers() {
	if e.child != nil {
		return
	}
	e.child = e.pop.Members[0].Clone()
	e.discard = e.pop.Members[0].Clone()
}

// Step implements Engine: PopSize sequential births. Migration and
// SetPopulation write the population between steps, so the incumbents are
// found afresh here and tracked only from birth to birth.
func (e *SteadyState) Step() {
	e.best = e.pop.Best(e.dir)
	if e.cfg.ReplaceWorst {
		e.worst = e.pop.Worst(e.dir)
	}
	for b := 0; b < e.cfg.PopSize; b++ {
		e.birth()
	}
}

// birth produces and inserts one offspring. The RNG draw sequence —
// selection, crossover chance, crossover (both children drawn, second
// unused), mutation, victim choice — is identical to the historical
// allocating implementation.
func (e *SteadyState) birth() {
	cfg := &e.cfg
	e.ensureBuffers()
	e.scratch.Plan(cfg.Selector, e.pop, e.dir)
	i := operators.SelectWith(cfg.Selector, e.pop, e.dir, cfg.RNG, &e.scratch)
	j := operators.SelectWith(cfg.Selector, e.pop, e.dir, cfg.RNG, &e.scratch)
	e.scratch.Unplan()
	pa, pb := e.pop.Members[i], e.pop.Members[j]
	ind := e.child
	if cfg.Crossover != nil && cfg.RNG.Chance(cfg.CrossoverRate) {
		operators.CrossInto(cfg.Crossover, pa.Genome, pb.Genome, ind, e.discard, cfg.RNG, &e.scratch)
	} else {
		ind.Genome = core.CopyGenome(ind.Genome, pa.Genome)
	}
	if cfg.Mutator != nil {
		cfg.Mutator.Mutate(ind.Genome, cfg.RNG)
	}
	ind.Fitness = cfg.Problem.Evaluate(ind.Genome)
	ind.Evaluated = true
	e.birthEvals++

	victim := e.worst
	if !cfg.ReplaceWorst {
		victim = cfg.RNG.Intn(e.pop.Len())
	}
	// Never replace the incumbent best with something worse: this is the
	// standard steady-state elitism guarantee. The rejected child stays in
	// the pooled buffer and is overwritten by the next birth.
	best, bestFit := e.best, e.pop.Members[e.best].Fitness
	if victim == best && !e.dir.BetterOrEqual(ind.Fitness, bestFit) {
		return
	}
	// Insert the child and recycle the evicted individual as the next
	// birth's buffer.
	e.child = e.pop.Replace(victim, ind)
	// Keep the incumbents what a scan would find: the best is the lowest
	// index holding the best fitness; the worst just left, so only a scan
	// finds the next one. A NaN fitness compares with nothing — rescan.
	switch {
	case ind.Fitness != ind.Fitness:
		e.best = e.pop.Best(e.dir)
	case e.dir.Better(ind.Fitness, bestFit) || ind.Fitness == bestFit && victim < best:
		e.best = victim
	}
	if cfg.ReplaceWorst {
		e.worst = e.pop.Worst(e.dir)
	}
}
