package operators

// Selection plans.
//
// LinearRank, Truncation and Roulette each derive something from the
// whole population before they can pick one parent: a stable worst →
// best order, or a wheel of cumulative weights. A generation makes
// 2·births picks against a population that does not change until the
// buffer swap, so that derivation belongs to the generation, not to the
// pick. Scratch.Plan builds it once, every SelectWith on that scratch
// reads it, Scratch.Unplan drops it. The engine owns the lifetime: a plan
// is opened explicitly, must be dropped before anything writes the
// population, and is never kept implicitly — a SelectScratch call with no
// live plan is plan · pick · unplan through the same two bodies.
//
// A pick under a plan draws exactly what the historical per-pick scan
// drew (one Float64 or one Intn) and then binary-searches the cumulative
// table for the first entry above the draw. The table holds the same
// left-to-right float sums the linear scan accumulated, and sums of
// non-negative weights never decrease, so the index — and with it the
// whole draw stream — is identical.

import (
	"sort"

	"pga/internal/core"
	"pga/internal/rng"
)

// planKind says which family of selectors a live plan serves.
type planKind uint8

const (
	planNone  planKind = iota
	planOrder          // LinearRank, Truncation: order.idx is worst → best
	planWheel          // Roulette: flat, total, cum
)

// selPlan is what the planned selectors derive from (pop, d) alone.
type selPlan struct {
	kind planKind
	pop  *core.Population // what the plan was opened for; nil when not live
	d    core.Direction

	order rankSorter

	flat  bool      // zero fitness span: the wheel degenerates to a uniform pick
	total float64   // sum of the wheel's weights
	cum   []float64 // cum[i] = weight(0) + … + weight(i), summed left to right
}

// planner is implemented by the selectors that plan.
type planner interface {
	plan(s *Scratch, pop *core.Population, d core.Direction)
}

// Plan derives, once, whatever sel needs from (pop, d) as a whole; every
// SelectWith(sel, pop, d, …, s) until Unplan then costs one draw and a
// binary search instead of a sort or a scan of the population. The caller
// must Unplan before pop is written. Selectors that derive nothing
// (Tournament, Random, …) plan nothing.
func (s *Scratch) Plan(sel Selector, pop *core.Population, d core.Direction) {
	if p, ok := sel.(planner); ok {
		p.plan(s, pop, d)
	}
}

// Unplan drops the live plan, if any. The buffers stay for the next one.
func (s *Scratch) Unplan() {
	s.plan.kind, s.plan.pop = planNone, nil
}

// planned reports whether a plan of kind k is live. A live plan opened for
// anything else is a caller bug — picks for another selector family, or a
// plan carried over to another population — and panics rather than answer
// from the wrong tables.
func (s *Scratch) planned(k planKind, pop *core.Population, d core.Direction) bool {
	p := &s.plan
	if p.kind == planNone {
		return false
	}
	if p.kind != k || p.pop != pop || p.d != d {
		panic("operators: selection under a plan opened for a different selector, population or direction")
	}
	return true
}

// ScratchSelector is implemented by selectors whose working memory (and
// selection plan) can live in an engine-owned Scratch.
type ScratchSelector interface {
	Selector
	// SelectScratch is Select with caller-provided scratch: a pick under
	// the scratch's live plan, or plan · pick · unplan when there is none.
	SelectScratch(pop *core.Population, d core.Direction, r *rng.Source, s *Scratch) int
}

// SelectWith invokes sel reusing scratch when both sides support it — the
// engines' hot-path entry point for parent selection. With a nil scratch
// or a plain Selector it degrades to sel.Select.
func SelectWith(sel Selector, pop *core.Population, d core.Direction, r *rng.Source, s *Scratch) int {
	if ss, ok := sel.(ScratchSelector); ok && s != nil {
		return ss.SelectScratch(pop, d, r, s)
	}
	return sel.Select(pop, d, r)
}

// firstAbove returns the first i with x < cum[i], or len(cum) when there
// is none (including a NaN x or table, where every comparison is false —
// as it was for the linear scan). cum must be non-decreasing.
func firstAbove(cum []float64, x float64) int {
	return sort.Search(len(cum), func(i int) bool { return x < cum[i] })
}

// floats returns buf resized to n (contents undefined).
func floats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// rankSorter sorts an index buffer worst → best under a direction without
// allocating (sort.Stable over a pointer receiver, unlike
// sort.SliceStable, performs no per-call allocation).
type rankSorter struct {
	idx []int
	pop *core.Population
	d   core.Direction
}

func (s *rankSorter) Len() int      { return len(s.idx) }
func (s *rankSorter) Swap(i, j int) { s.idx[i], s.idx[j] = s.idx[j], s.idx[i] }
func (s *rankSorter) Less(a, b int) bool {
	// worst first
	return s.d.Better(s.pop.Members[s.idx[b]].Fitness, s.pop.Members[s.idx[a]].Fitness)
}

// rankIndicesInto returns population indices ordered worst → best under d
// (stable: equal fitness keeps index order), reusing the plan's order
// buffer.
func rankIndicesInto(s *Scratch, pop *core.Population, d core.Direction) []int {
	o := &s.plan.order
	n := pop.Len()
	if cap(o.idx) < n {
		o.idx = make([]int, n)
	}
	o.idx = o.idx[:n]
	for i := range o.idx {
		o.idx[i] = i
	}
	o.pop, o.d = pop, d
	sort.Stable(o)
	o.pop = nil // the sorter needs the population only while it sorts
	return o.idx
}

// orderPlan opens the plan LinearRank and Truncation share: the
// population's worst → best order.
func orderPlan(s *Scratch, pop *core.Population, d core.Direction) {
	rankIndicesInto(s, pop, d)
	s.plan.kind, s.plan.pop, s.plan.d = planOrder, pop, d
}

func (LinearRank) plan(s *Scratch, pop *core.Population, d core.Direction) { orderPlan(s, pop, d) }
func (Truncation) plan(s *Scratch, pop *core.Population, d core.Direction) { orderPlan(s, pop, d) }

// SelectScratch implements ScratchSelector.
func (sel LinearRank) SelectScratch(pop *core.Population, d core.Direction, r *rng.Source, s *Scratch) int {
	if s.planned(planOrder, pop, d) {
		return sel.pick(s, r)
	}
	sel.plan(s, pop, d)
	i := sel.pick(s, r)
	s.Unplan()
	return i
}

// pick draws one parent from the planned order.
func (sel LinearRank) pick(s *Scratch, r *rng.Source) int {
	ranked := s.plan.order.idx
	n := len(ranked)
	if n == 1 {
		return 0
	}
	cum := s.rankWeights(n, sel.sp())
	x := r.Float64() * float64(n) // weights sum to n by construction
	if rank := firstAbove(cum, x); rank < n {
		return ranked[rank]
	}
	return ranked[n-1]
}

// rankWeights returns the cumulative linear-ranking weights of n ranks
// under pressure sp: rank 0 = worst … n-1 = best, weight(rank) =
// 2-sp + 2(sp-1)rank/(n-1), non-negative for sp in [1, 2]. The table
// depends on nothing else, so it is rebuilt only when (n, sp) changes.
func (s *Scratch) rankWeights(n int, sp float64) []float64 {
	if len(s.rankCum) == n && s.rankSP == sp {
		return s.rankCum
	}
	s.rankCum, s.rankSP = floats(s.rankCum, n), sp
	acc := 0.0
	for rank := range s.rankCum {
		w := 2 - sp + 2*(sp-1)*float64(rank)/float64(n-1)
		acc += w
		s.rankCum[rank] = acc
	}
	return s.rankCum
}

// SelectScratch implements ScratchSelector.
func (sel Truncation) SelectScratch(pop *core.Population, d core.Direction, r *rng.Source, s *Scratch) int {
	if s.planned(planOrder, pop, d) {
		return sel.pick(s, r)
	}
	sel.plan(s, pop, d)
	i := sel.pick(s, r)
	s.Unplan()
	return i
}

// pick draws uniformly among the best Frac of the planned order.
func (sel Truncation) pick(s *Scratch, r *rng.Source) int {
	ranked := s.plan.order.idx // worst → best
	n := len(ranked)
	k := int(float64(n) * sel.frac())
	if k < 1 {
		k = 1
	}
	return ranked[n-k+r.Intn(k)]
}

// plan builds the wheel: weights in [eps, 1+eps], oriented so better
// fitness → larger weight.
func (Roulette) plan(s *Scratch, pop *core.Population, d core.Direction) {
	p := &s.plan
	p.kind, p.pop, p.d = planWheel, pop, d
	min, max := pop.Members[0].Fitness, pop.Members[0].Fitness
	for _, ind := range pop.Members {
		if ind.Fitness < min {
			min = ind.Fitness
		}
		if ind.Fitness > max {
			max = ind.Fitness
		}
	}
	span := max - min
	p.flat = span == 0
	if p.flat {
		return
	}
	const eps = 0.01
	p.cum = floats(p.cum, pop.Len())
	acc := 0.0
	for i, ind := range pop.Members {
		if d == core.Maximize {
			acc += (ind.Fitness-min)/span + eps
		} else {
			acc += (max-ind.Fitness)/span + eps
		}
		p.cum[i] = acc
	}
	p.total = acc
}

// SelectScratch implements ScratchSelector.
func (sel Roulette) SelectScratch(pop *core.Population, d core.Direction, r *rng.Source, s *Scratch) int {
	if s.planned(planWheel, pop, d) {
		return sel.pick(s, r)
	}
	sel.plan(s, pop, d)
	i := sel.pick(s, r)
	s.Unplan()
	return i
}

// pick spins the planned wheel.
func (Roulette) pick(s *Scratch, r *rng.Source) int {
	p := &s.plan
	n := p.pop.Len()
	if p.flat {
		return r.Intn(n) // uniform when all equal
	}
	if i := firstAbove(p.cum, r.Float64()*p.total); i < n {
		return i
	}
	return n - 1
}
