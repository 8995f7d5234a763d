package ga

import (
	"sync"

	"pga/internal/core"
	"pga/internal/operators"
	"pga/internal/rng"
)

// ParallelGenerational is the shared-memory global PGA of Bethke (1976)
// and Grefenstette's types 1–3 (survey §2): one panmictic population
// whose whole reproduction step — selection, crossover, mutation and
// evaluation — runs in parallel workers over shared memory, not just the
// fitness evaluations (contrast with the master–slave Farm, which
// parallelises evaluation only).
//
// Determinism: the generation's births are statically partitioned into
// contiguous blocks, one per worker, and each worker owns a private
// stream split from the engine seed at construction. Results are
// therefore identical regardless of goroutine scheduling for one (seed,
// workers) pair; another worker count repartitions the blocks and the
// streams and gives other bytes. Generational is the global PGA whose
// bytes do not depend on the worker count: it breeds a large generation
// on two workers (births.go) with exactly the serial loop's bytes.
type ParallelGenerational struct {
	cfg     Config
	pop     *core.Population
	dir     core.Direction
	workers int
	streams []*rng.Source
	evals   int64

	// Pooled per-step state: the shadow generation, one scratch and one
	// discarded-second-child buffer per worker (workers never share mutable
	// state), and the per-worker evaluation counters.
	next      *core.Population
	scratches []operators.Scratch
	discards  []*core.Individual
	counts    []int64
	ranker    bestSorter
}

var _ Engine = (*ParallelGenerational)(nil)

// NewParallelGenerational creates the engine with the given worker count
// (minimum 1). cfg.Evaluator is ignored: evaluation happens inside the
// reproduction workers.
func NewParallelGenerational(cfg Config, workers int) *ParallelGenerational {
	cfg = cfg.withDefaults()
	cfg.validate()
	if workers < 1 {
		workers = 1
	}
	e := &ParallelGenerational{
		cfg:     cfg,
		dir:     cfg.Problem.Direction(),
		workers: workers,
		streams: cfg.RNG.SplitN(workers),
	}
	e.pop = core.NewPopulation(cfg.PopSize)
	for i := 0; i < cfg.PopSize; i++ {
		ind := core.NewIndividual(cfg.Problem.NewGenome(cfg.RNG))
		ind.Fitness = cfg.Problem.Evaluate(ind.Genome)
		ind.Evaluated = true
		e.evals++
		e.pop.Members = append(e.pop.Members, ind)
	}
	return e
}

// Name implements Engine.
func (e *ParallelGenerational) Name() string { return "parallel-generational" }

// Population implements Engine.
func (e *ParallelGenerational) Population() *core.Population { return e.pop }

// Problem implements Engine.
func (e *ParallelGenerational) Problem() core.Problem { return e.cfg.Problem }

// Evaluations implements Engine.
func (e *ParallelGenerational) Evaluations() int64 { return e.evals }

// ensureBuffers builds the pooled shadow generation and per-worker scratch
// state on first use.
func (e *ParallelGenerational) ensureBuffers() {
	if e.next != nil {
		return
	}
	n := e.cfg.PopSize
	e.next = core.NewPopulation(n)
	for i := 0; i < n; i++ {
		e.next.Members = append(e.next.Members, e.pop.Members[i].Clone())
	}
	e.scratches = make([]operators.Scratch, e.workers)
	e.discards = make([]*core.Individual, e.workers)
	for w := range e.discards {
		e.discards[w] = e.pop.Members[0].Clone()
	}
	e.counts = make([]int64, e.workers)
}

// Step implements Engine: one full generation produced in parallel.
// Workers read the previous population (immutable during the step) and
// write disjoint slices of the next one, so no locking is needed —
// exactly the shared-memory discipline of the early global PGAs. Each
// worker draws from its private stream in the same order as the historical
// allocating implementation, so seeded runs are unchanged.
func (e *ParallelGenerational) Step() {
	cfg := &e.cfg
	n := cfg.PopSize
	births := n - cfg.Elitism
	e.ensureBuffers()

	// Offspring fill next.Members[Elitism : n], worker w owning the
	// contiguous block [Elitism+lo, Elitism+hi).
	var wg sync.WaitGroup
	for w := 0; w < e.workers; w++ {
		lo := births * w / e.workers
		hi := births * (w + 1) / e.workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			r := e.streams[w]
			scratch := &e.scratches[w]
			discard := e.discards[w]
			// e.pop is immutable during the step: one plan per worker.
			scratch.Plan(cfg.Selector, e.pop, e.dir)
			for i := lo; i < hi; i++ {
				a := operators.SelectWith(cfg.Selector, e.pop, e.dir, r, scratch)
				b := operators.SelectWith(cfg.Selector, e.pop, e.dir, r, scratch)
				pa, pb := e.pop.Members[a], e.pop.Members[b]
				child := e.next.Members[cfg.Elitism+i]
				if cfg.Crossover != nil && r.Chance(cfg.CrossoverRate) {
					operators.CrossInto(cfg.Crossover, pa.Genome, pb.Genome, child, discard, r, scratch)
				} else {
					child.Genome = core.CopyGenome(child.Genome, pa.Genome)
				}
				if cfg.Mutator != nil {
					cfg.Mutator.Mutate(child.Genome, r)
				}
				child.Fitness = cfg.Problem.Evaluate(child.Genome)
				child.Evaluated = true
				e.counts[w]++
			}
			scratch.Unplan()
		}(w, lo, hi)
	}
	wg.Wait()
	for w, c := range e.counts {
		e.evals += c
		e.counts[w] = 0
	}

	ranked := topInto(&e.ranker, e.pop, e.dir, cfg.Elitism)
	for i := 0; i < cfg.Elitism; i++ {
		e.next.Members[i].CopyFrom(e.pop.Members[ranked[i]])
	}
	// Swap buffers, keeping the *Population identity stable for callers
	// that hold Population() across steps.
	e.pop.Members, e.next.Members = e.next.Members, e.pop.Members
}
