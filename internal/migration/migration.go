// Package migration implements the migration policies of the island model:
// who emigrates, how many, how often, how immigrants are integrated, and
// whether the exchange is synchronous or asynchronous.
//
// The survey (§1.1) singles migration out as the defining new process of
// coarse-grained PGAs: "Migration has a huge impact on speed reaching the
// solution." Alba & Troya (2000) studied exactly the knobs modelled here —
// migration frequency and migrant selection in a ring of islands — and
// Alba & Troya (2001) the synchronous/asynchronous axis.
package migration

import (
	"fmt"
	"sync"

	"pga/internal/core"
	"pga/internal/rng"
)

// Selector picks the individuals that emigrate from a deme. Returned
// individuals are clones: emigration is by copy, as in the reviewed
// systems (the sender keeps its individuals).
type Selector interface {
	// Name identifies the policy in tables and logs.
	Name() string
	// Pick returns count cloned emigrants from pop.
	Pick(pop *core.Population, d core.Direction, count int, r *rng.Source) []*core.Individual
}

// SelectBest emigrates the deme's best individuals (the canonical policy).
type SelectBest struct{}

// Name implements Selector.
func (SelectBest) Name() string { return "best" }

// Pick implements Selector.
func (SelectBest) Pick(pop *core.Population, d core.Direction, count int, r *rng.Source) []*core.Individual {
	if count > pop.Len() {
		count = pop.Len()
	}
	// Partial selection sort of indices by fitness.
	idx := make([]int, pop.Len())
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < count; i++ {
		best := i
		for j := i + 1; j < len(idx); j++ {
			if d.Better(pop.Members[idx[j]].Fitness, pop.Members[idx[best]].Fitness) {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	out := make([]*core.Individual, count)
	for i := 0; i < count; i++ {
		out[i] = pop.Members[idx[i]].Clone()
	}
	return out
}

// SelectRandom emigrates uniformly random individuals (the low-pressure
// policy of Alba & Troya's comparison).
type SelectRandom struct{}

// Name implements Selector.
func (SelectRandom) Name() string { return "random" }

// Pick implements Selector. It draws what r.Sample(pop.Len(), count)
// would, from a pooled identity table instead of a fresh one per pick.
func (SelectRandom) Pick(pop *core.Population, d core.Direction, count int, r *rng.Source) []*core.Individual {
	n := pop.Len()
	if count > n {
		count = n
	}
	s := pickScratch.Get().(*sampleScratch)
	defer pickScratch.Put(s)
	if len(s.id) < n {
		s.id = make([]int, n)
		for i := range s.id {
			s.id[i] = i
		}
	}
	if len(s.out) < count {
		s.out = make([]int, count)
	}
	out := make([]*core.Individual, 0, count)
	for _, i := range r.SampleInto(s.id[:n], s.out[:count]) {
		out = append(out, pop.Members[i].Clone())
	}
	return out
}

// sampleScratch is SelectRandom's working memory: id is an identity table,
// which rng.SampleInto hands back as the identity, and out receives the
// drawn indices.
type sampleScratch struct{ id, out []int }

// pickScratch pools sampleScratch values: a Selector value is shared by
// every deme of a run, and the free-running demes pick concurrently.
var pickScratch = sync.Pool{New: func() any { return new(sampleScratch) }}

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

// Pick implements Selector.
func (s SelectTournament) Pick(pop *core.Population, d core.Direction, count int, r *rng.Source) []*core.Individual {
	if count > pop.Len() {
		count = pop.Len()
	}
	out := make([]*core.Individual, 0, count)
	for n := 0; n < count; n++ {
		best := r.Intn(pop.Len())
		for i := 1; i < s.k(); i++ {
			c := r.Intn(pop.Len())
			if d.Better(pop.Members[c].Fitness, pop.Members[best].Fitness) {
				best = c
			}
		}
		out = append(out, pop.Members[best].Clone())
	}
	return out
}

// CloneBatch returns a fresh deep copy of a migrant batch. Each
// neighbour (and each duplicate delivery on a faulty link) must receive
// its own clones: migrants enter the receiving population by reference,
// so sharing one batch across destinations would alias individuals
// between demes. Used by the island runtimes and the transport layer.
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
	// Integrate inserts migrants into pop, returning how many were
	// accepted. Implementations must not retain the migrants slice.
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
		pop.Replace(w, m)
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
			pop.Replace(w, m)
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
		pop.Replace(v, m)
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
