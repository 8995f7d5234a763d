package ga

// Two workers, one population, the serial loop's bytes.
//
// The survey's first model is the global PGA: one panmictic population
// whose reproduction is spread over processors without changing the
// algorithm. ParallelGenerational does that with a stream per worker, so
// its bytes depend on its worker count; Generational does it here with
// the serial loop's bytes, whatever GOMAXPROCS is.
//
// A generation's births are pairs: two selections and a crossover-chance
// draw, then the pair's crossover (when crossed) and two mutations. When
// both operators declare how many draws they take on the genome's shape
// (operators.FixedDraws), the stream state after a pair's breed draws is
// known without making them: xoshiro's transition is linear, so a fixed
// count of draws is one rng.Leap. The plan pass makes every selection and
// chance draw in the serial order, through the serial loop's pickPair, on
// a copy of the engine stream, leaps over each pair's breed draws, and
// records where each pair's breed draws start and end. Two workers — the goroutine that called Step and one it
// spawns — then breed disjoint halves of the pairs, each pair from its
// recorded start through breed, the serial loop's own body, and the
// engine stream is set where the plan ended.
//
// Each worker checks that every pair ended at its recorded end. A wrong
// declaration fails the check, and so does a panic, which the worker
// catches: the serial loop then breeds the generation again from the
// untouched engine stream. A wrong declaration costs time, never bytes,
// and a panic is raised again on the goroutine that called Step, where a
// supervisor can recover it.

import (
	"runtime"
	"sync"

	"pga/internal/operators"
	"pga/internal/rng"
)

// minParallelDraws is the fewest breed draws a generation must declare
// for Generational to breed it on two workers. Below it, waking the
// second core costs more than its half saves: evalheavy-gen's generations
// (≈ 77k draws) ran slower on two workers (EXPERIMENTS.md, "Two cores,
// one population"). A variable so that tests can lower it.
var minParallelDraws = 1 << 17

// fixedDraws is the operators' declaration; a test swaps in a wrong one.
var fixedDraws = operators.FixedDraws

// pairPlan is one pair of births as the plan pass found it.
type pairPlan struct {
	// a and b index the parents; crossed is the crossover chance's outcome.
	a, b    int
	crossed bool
	// from and to are the engine-stream states where the pair's breed
	// draws start and end.
	from, to [5]uint64
}

// birthWorker is one worker's own state. The stream comes first and the
// Scratch is longer than a cache line, so two workers' streams never
// share one.
type birthWorker struct {
	r       rng.Source
	scratch operators.Scratch
	// ok reports that every pair the worker bred ended where planned.
	ok bool
}

// twoWorkers is the pooled state of the two-worker path, built by the
// first generation that takes it.
type twoWorkers struct {
	plan []pairPlan
	// r is the plan pass's copy of the engine stream.
	r rng.Source
	// leaps skip a copied (0) and a crossed (1) pair's breed draws.
	leaps [2]*rng.Leap
	// own breeds on the goroutine that called Step, helper on the one it
	// spawns.
	own, helper birthWorker
	wg          sync.WaitGroup
}

// breedTwo breeds the generation's births on two workers when it may, and
// reports whether it did. When it reports false the engine stream is
// untouched and the serial loop breeds the generation, overwriting
// whatever the workers wrote. e.scratch holds the generation's selection
// plan.
func (e *Generational) breedTwo(births int) bool {
	cfg := &e.cfg
	pairs := (births + 1) / 2
	if pairs < 2 || runtime.GOMAXPROCS(0) < 2 {
		return false
	}
	g := e.pop.Members[0].Genome
	dc, okc := fixedDraws(cfg.Crossover, g)
	dm, okm := fixedDraws(cfg.Mutator, g)
	if !okc || !okm || pairs*(dc+2*dm) < minParallelDraws {
		return false
	}
	if e.two == nil {
		e.two = &twoWorkers{plan: make([]pairPlan, pairs)}
	}
	t := e.two
	r := &t.r
	r.SetState(cfg.RNG.State())
	for p := range t.plan {
		pp := &t.plan[p]
		pp.a, pp.b, pp.crossed = e.pickPair(r)
		pp.from = r.State()
		t.leap(pp.crossed, dc, dm).Apply(r)
		pp.to = r.State()
	}
	half := pairs / 2
	helper := &t.helper
	t.wg.Add(2)
	go e.breedPairs(helper, half, pairs, births)
	e.breedPairs(&t.own, 0, half, births)
	t.wg.Wait()
	if !t.own.ok || !helper.ok {
		return false
	}
	cfg.RNG.SetState(r.State())
	return true
}

// leap returns the leap over one pair's breed draws: the two mutations',
// and the crossover's when the pair is crossed.
func (t *twoWorkers) leap(crossed bool, dc, dm int) *rng.Leap {
	k, d := 0, 2*dm
	if crossed {
		k, d = 1, dc+2*dm
	}
	if t.leaps[k] == nil || t.leaps[k].Draws() != d {
		t.leaps[k] = rng.NewLeap(d)
	}
	return t.leaps[k]
}

// breedPairs breeds plan[lo:hi] on worker w, each pair from its planned
// start state through breed, and sets w.ok when every pair ended at its
// planned end. It recovers a panic, leaving w.ok false, so that the
// serial re-breed raises it on the caller's goroutine.
func (e *Generational) breedPairs(w *birthWorker, lo, hi, births int) {
	t := e.two
	defer t.wg.Done()
	defer func() { _ = recover() }()
	w.ok = false
	for p := lo; p < hi; p++ {
		pp := &t.plan[p]
		w.r.SetState(pp.from)
		e.breed(pp.a, pp.b, pp.crossed, 2*p, births, &w.r, &w.scratch)
		if w.r.State() != pp.to {
			return
		}
	}
	w.ok = true
}
