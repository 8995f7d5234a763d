// Package migration implements the migration policies of the island model:
// who emigrates, how many, how often, how immigrants are integrated, and
// whether the exchange is synchronous or asynchronous.
//
// The survey (§1.1) singles migration out as the defining new process of
// coarse-grained PGAs: "Migration has a huge impact on speed reaching the
// solution." Alba & Troya (2000) studied exactly the knobs modelled here —
// migration frequency and migrant selection in a ring of islands — and
// Alba & Troya (2001) the synchronous/asynchronous axis.
//
// Migration moves values, never individuals: a Selector names emigrants
// by index (Indices) or clones them (Pick), and a Replacer copies
// immigrants into the members it displaces (Integrate), so no
// individual or gene slice is ever shared between two populations, or
// between a population and the batch that fed it. The island runtimes
// rely on it to lend their own members to a transport and to integrate
// batches an endpoint only lends them.
package migration

import (
	"fmt"
	"slices"
	"sync"

	"pga/internal/core"
	"pga/internal/rng"
)

// Selector picks the individuals that emigrate from a deme. Emigration is
// by copy, as in the reviewed systems (the sender keeps its individuals):
// Indices names the emigrants without copying them, for a sender that
// lends its own members to a borrowing transport.Endpoint, and Pick
// returns clones of exactly those members.
type Selector interface {
	// Name identifies the policy in tables and logs.
	Name() string
	// Indices appends to dst the pop.Members indices of count emigrants
	// (fewer when pop is smaller) and returns the extended slice. It
	// allocates nothing once dst has room, and it makes Pick's draws.
	Indices(pop *core.Population, d core.Direction, count int, r *rng.Source, dst []int) []int
	// Pick returns count cloned emigrants from pop: clones of the
	// members Indices names.
	Pick(pop *core.Population, d core.Direction, count int, r *rng.Source) []*core.Individual
}

// pickClones is every selector's Pick: fresh clones of the members
// s.Indices names, its index list held in pooled scratch.
func pickClones(s Selector, pop *core.Population, d core.Direction, count int, r *rng.Source) []*core.Individual {
	sc := pickScratch.Get().(*scratch)
	defer pickScratch.Put(sc)
	sc.picked = s.Indices(pop, d, count, r, sc.picked[:0])
	out := make([]*core.Individual, len(sc.picked))
	for i, j := range sc.picked {
		out[i] = pop.Members[j].Clone()
	}
	return out
}

// SelectBest emigrates the deme's best individuals (the canonical policy).
type SelectBest struct{}

// Name implements Selector.
func (SelectBest) Name() string { return "best" }

// Indices implements Selector: a partial selection sort of a pooled
// index table by fitness.
func (SelectBest) Indices(pop *core.Population, d core.Direction, count int, r *rng.Source, dst []int) []int {
	n := pop.Len()
	if count > n {
		count = n
	}
	sc := indexScratch.Get().(*scratch)
	defer indexScratch.Put(sc)
	idx := slices.Grow(sc.order[:0], n)[:n]
	sc.order = idx
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < count; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if d.Better(pop.Members[idx[j]].Fitness, pop.Members[idx[best]].Fitness) {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	return append(dst, idx[:count]...)
}

// Pick implements Selector.
func (s SelectBest) Pick(pop *core.Population, d core.Direction, count int, r *rng.Source) []*core.Individual {
	return pickClones(s, pop, d, count, r)
}

// SelectRandom emigrates uniformly random individuals (the low-pressure
// policy of Alba & Troya's comparison).
type SelectRandom struct{}

// Name implements Selector.
func (SelectRandom) Name() string { return "random" }

// Indices implements Selector. It draws what r.Sample(pop.Len(), count)
// would, from a pooled identity table instead of a fresh one per pick.
func (SelectRandom) Indices(pop *core.Population, d core.Direction, count int, r *rng.Source, dst []int) []int {
	n := pop.Len()
	if count > n {
		count = n
	}
	sc := indexScratch.Get().(*scratch)
	defer indexScratch.Put(sc)
	if len(sc.id) < n {
		sc.id = make([]int, n)
		for i := range sc.id {
			sc.id[i] = i
		}
	}
	at := len(dst)
	dst = slices.Grow(dst, count)[:at+count]
	r.SampleInto(sc.id[:n], dst[at:])
	return dst
}

// Pick implements Selector.
func (s SelectRandom) Pick(pop *core.Population, d core.Direction, count int, r *rng.Source) []*core.Individual {
	return pickClones(s, pop, d, count, r)
}

// scratch is the selectors' pooled working memory: id is SelectRandom's
// identity table, which rng.SampleInto hands back as the identity; order
// is SelectBest's index table; picked is Pick's index list.
type scratch struct{ id, order, picked []int }

// indexScratch and pickScratch pool scratch values, for Indices and for
// Pick around it: a Selector value is shared by every deme of a run, and
// the free-running demes pick concurrently.
var (
	indexScratch = sync.Pool{New: func() any { return new(scratch) }}
	pickScratch  = sync.Pool{New: func() any { return new(scratch) }}
)

// SelectTournament emigrates tournament winners — pressure between best
// and random.
type SelectTournament struct {
	// K is the tournament size; default 3.
	K int
}

// Name implements Selector.
func (s SelectTournament) Name() string { return fmt.Sprintf("tournament(%d)", s.k()) }

func (s SelectTournament) k() int {
	if s.K < 1 {
		return 3
	}
	return s.K
}

// Indices implements Selector. A member may win more than one
// tournament, and is then named more than once.
func (s SelectTournament) Indices(pop *core.Population, d core.Direction, count int, r *rng.Source, dst []int) []int {
	if count > pop.Len() {
		count = pop.Len()
	}
	for n := 0; n < count; n++ {
		best := r.Intn(pop.Len())
		for i := 1; i < s.k(); i++ {
			c := r.Intn(pop.Len())
			if d.Better(pop.Members[c].Fitness, pop.Members[best].Fitness) {
				best = c
			}
		}
		dst = append(dst, best)
	}
	return dst
}

// Pick implements Selector.
func (s SelectTournament) Pick(pop *core.Population, d core.Direction, count int, r *rng.Source) []*core.Individual {
	return pickClones(s, pop, d, count, r)
}

// CloneBatch returns a fresh deep copy of a migrant batch, for a caller
// that keeps a batch beyond the endpoint call or Integrate that lent it
// (the island runtimes copy into storage they own instead).
func CloneBatch(batch []*core.Individual) []*core.Individual {
	out := make([]*core.Individual, len(batch))
	for i, ind := range batch {
		out[i] = ind.Clone()
	}
	return out
}

// Replacer integrates immigrants into a deme's population.
type Replacer interface {
	// Name identifies the policy in tables and logs.
	Name() string
	// Integrate copies migrants into pop's members by value, returning
	// how many were accepted. It keeps nothing of migrants, which stay
	// the caller's: a migrant batch may be lent by an endpoint, or be
	// another deme's own members.
	Integrate(pop *core.Population, d core.Direction, migrants []*core.Individual, r *rng.Source) int
}

// ReplaceWorst replaces the deme's worst individuals unconditionally (the
// canonical policy).
type ReplaceWorst struct{}

// Name implements Replacer.
func (ReplaceWorst) Name() string { return "worst" }

// Integrate implements Replacer.
func (ReplaceWorst) Integrate(pop *core.Population, d core.Direction, migrants []*core.Individual, r *rng.Source) int {
	accepted := 0
	for _, m := range migrants {
		w := pop.Worst(d)
		if w < 0 {
			break
		}
		pop.Members[w].CopyFrom(m)
		accepted++
	}
	return accepted
}

// ReplaceWorstIfBetter replaces the worst individual only when the migrant
// improves on it (elitist acceptance).
type ReplaceWorstIfBetter struct{}

// Name implements Replacer.
func (ReplaceWorstIfBetter) Name() string { return "worst-if-better" }

// Integrate implements Replacer.
func (ReplaceWorstIfBetter) Integrate(pop *core.Population, d core.Direction, migrants []*core.Individual, r *rng.Source) int {
	accepted := 0
	for _, m := range migrants {
		w := pop.Worst(d)
		if w < 0 {
			break
		}
		if d.Better(m.Fitness, pop.Members[w].Fitness) {
			pop.Members[w].CopyFrom(m)
			accepted++
		}
	}
	return accepted
}

// ReplaceRandom replaces uniformly random individuals, but never the
// deme's current best (so migration cannot destroy local progress).
type ReplaceRandom struct{}

// Name implements Replacer.
func (ReplaceRandom) Name() string { return "random" }

// Integrate implements Replacer.
func (ReplaceRandom) Integrate(pop *core.Population, d core.Direction, migrants []*core.Individual, r *rng.Source) int {
	if pop.Len() < 2 {
		return 0
	}
	best := pop.Best(d)
	accepted := 0
	for _, m := range migrants {
		v := r.Intn(pop.Len())
		if v == best {
			v = (v + 1) % pop.Len()
		}
		pop.Members[v].CopyFrom(m)
		accepted++
	}
	return accepted
}

// Policy bundles the full migration configuration of an island run.
type Policy struct {
	// Interval is the number of generations between exchanges; 0 disables
	// migration entirely (isolated demes).
	Interval int
	// Count is the number of migrants sent to each neighbour per exchange.
	Count int
	// Select picks emigrants; default SelectBest.
	Select Selector
	// Replace integrates immigrants; default ReplaceWorst.
	Replace Replacer
	// Sync selects synchronous (barrier) migration; false means
	// asynchronous buffered exchange.
	Sync bool
	// Buffer is the capacity of each async migration channel (per link);
	// default 4. Ignored in sync mode.
	Buffer int
}

// WithDefaults returns a copy of p with nil fields filled in.
func (p Policy) WithDefaults() Policy {
	if p.Select == nil {
		p.Select = SelectBest{}
	}
	if p.Replace == nil {
		p.Replace = ReplaceWorst{}
	}
	if p.Count == 0 {
		p.Count = 1
	}
	if p.Buffer == 0 {
		p.Buffer = 4
	}
	return p
}

// Due reports whether an exchange is due after the given completed
// generation (1-based).
func (p Policy) Due(generation int) bool {
	return p.Interval > 0 && generation > 0 && generation%p.Interval == 0
}

// String implements fmt.Stringer.
func (p Policy) String() string {
	p = p.WithDefaults()
	mode := "async"
	if p.Sync {
		mode = "sync"
	}
	if p.Interval == 0 {
		return "no-migration"
	}
	return fmt.Sprintf("every %d gens, %d×%s→%s, %s",
		p.Interval, p.Count, p.Select.Name(), p.Replace.Name(), mode)
}
