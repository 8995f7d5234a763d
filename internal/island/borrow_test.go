package island

import (
	"fmt"
	"testing"

	"pga/internal/cellular"
	"pga/internal/core"
	"pga/internal/engine"
	"pga/internal/ga"
	"pga/internal/genome"
	"pga/internal/migration"
	"pga/internal/operators"
	"pga/internal/problems"
	"pga/internal/rng"
	"pga/internal/supervise"
	"pga/internal/topology"
	"pga/internal/transport"
)

// refuser is an Endpoint that refuses every batch, counting the offers.
type refuser struct{ offers int }

func (r *refuser) Self() int                         { return 0 }
func (r *refuser) Send(int, []*core.Individual) bool { r.offers++; return false }
func (r *refuser) Recv() ([]*core.Individual, bool)  { return nil, false }
func (r *refuser) Stats() core.NetStats              { return core.NetStats{} }
func (r *refuser) Close() error                      { return nil }

func TestRetryRingIsFIFOAndCopies(t *testing.T) {
	q := newRetryRing(2)
	src := stampedBatch(1)
	for i := 0; i < 2; i++ {
		if !q.push(i, 1, src) {
			t.Fatalf("push %d into a ring of 2 refused", i)
		}
		src[0].Fitness++ // the sender reuses its batch at once
	}
	if q.push(2, 1, src) {
		t.Fatal("a full ring took a third batch")
	}
	for want := 0; want < 2; want++ {
		s := q.pop()
		if s.dest != want || s.batch[0].Fitness != float64(1+want) {
			t.Fatalf("pop %d: dest %d, fitness %g; want dest %d, fitness %d", want, s.dest, s.batch[0].Fitness, want, 1+want)
		}
		if s.batch[0] == src[0] {
			t.Fatal("the ring holds the sender's individual, not a copy")
		}
	}
}

// stampedBatch is a one-migrant batch of an 8-bit genome with fitness f.
func stampedBatch(f float64) []*core.Individual {
	return []*core.Individual{{Genome: genome.NewBitString(8), Fitness: f, Evaluated: true}}
}

// TestRetryRingDeadLettersExactly runs a supervised deme of Complete(4)
// — three neighbours — against an endpoint that refuses everything, with
// retry rings of several sizes. Every batch the deme makes is offered
// until its retries run out or the ring has no slot for it, and then
// dead-lettered exactly once, at the latest when the loop ends. The
// documented bound, neighbours × (MaxSendRetries − 1) slots, is the
// least that never refuses a batch a retry: one slot less and the deme
// makes fewer offers.
func TestRetryRingDeadLettersExactly(t *testing.T) {
	const (
		nbrs    = 3
		retries = 3
		epochs  = 7
	)
	// With room for every retry, each epoch's batches are offered until
	// retries run out or the run ends.
	full := 0
	for e := 1; e <= epochs; e++ {
		full += nbrs * min(retries, epochs-e+1)
	}
	for _, c := range []struct {
		slots  int
		offers func(int) bool
	}{
		{nbrs * retries, func(n int) bool { return n == full }}, // (Size − 1) × retries, as runFree builds it
		{nbrs * (retries - 1), func(n int) bool { return n == full }},
		{nbrs*(retries-1) - 1, func(n int) bool { return n < full }},
		{0, func(n int) bool { return n == nbrs*epochs }},
	} {
		t.Run(fmt.Sprintf("slots=%d", c.slots), func(t *testing.T) {
			topo := topology.Complete(nbrs + 1)
			newEngine := onemaxEngines(16, 6)
			sup := supervise.New(supervise.Config{MaxSendRetries: retries}, supervise.NewFaultPlan(), topo, newEngine, rng.New(2))
			ep := &refuser{}
			d := &freeDeme{
				self: 0, e: newEngine(0, rng.New(1)), dir: core.Maximize,
				policy: migration.Policy{Interval: 1, Count: 2}.WithDefaults(),
				mr:     rng.New(3), ep: ep, routes: sup.Router(), sup: sup,
				retries: newRetryRing(c.slots),
			}
			for g := 1; g <= epochs; g++ {
				d.Step(g)
				if d.retries.n > nbrs*(retries-1) {
					t.Fatalf("epoch %d: %d batches wait, bound %d", g, d.retries.n, nbrs*(retries-1))
				}
			}
			d.deadLetterPending(nil)
			if got, want := sup.DeadLettered(), int64(nbrs*epochs); got != want {
				t.Errorf("dead-lettered %d of the %d batches made", got, want)
			}
			if !c.offers(ep.offers) {
				t.Errorf("%d offers (%d with room for every retry)", ep.offers, full)
			}
		})
	}
}

// genes returns the address of g's first gene, which names its gene
// storage, or nil for a genome without genes.
func genes(g core.Genome) any {
	switch v := g.(type) {
	case *genome.BitString:
		if len(v.Words) > 0 {
			return &v.Words[0]
		}
	case *genome.RealVector:
		if len(v.Genes) > 0 {
			return &v.Genes[0]
		}
	case *genome.IntVector:
		if len(v.Genes) > 0 {
			return &v.Genes[0]
		}
	case *genome.Permutation:
		if len(v.Perm) > 0 {
			return &v.Perm[0]
		}
	default:
		panic(fmt.Sprintf("genes: %T", g))
	}
	return nil
}

// aliasing describes the first pair of pop's slots that share an
// individual or gene storage, or returns "".
func aliasing(pop *core.Population) string {
	inds := map[*core.Individual]int{}
	stores := map[any]int{}
	for i, ind := range pop.Members {
		if j, ok := inds[ind]; ok {
			return fmt.Sprintf("slots %d and %d hold one individual", j, i)
		}
		inds[ind] = i
		p := genes(ind.Genome)
		if j, ok := stores[p]; ok && p != nil {
			return fmt.Sprintf("slots %d and %d share gene storage", j, i)
		}
		stores[p] = i
	}
	return ""
}

// aliasChecked wraps an engine and checks its population for aliasing
// before and after every step: before catches what migration did since.
type aliasChecked struct {
	ga.Engine
	t *testing.T
}

func (a aliasChecked) Step() {
	a.check("before")
	a.Engine.Step()
	a.check("after")
}

func (a aliasChecked) check(when string) {
	if s := aliasing(a.Engine.Population()); s != "" {
		a.t.Errorf("%s %s step: %s", a.Engine.Name(), when, s)
	}
}

// TestMembersNeverAlias: Replacer.Integrate copies migrants into the
// members they displace, which is correct only because no two slots of a
// population share an individual or a genome's gene storage. The
// property is checked after every step of the generational, steady-state
// and cellular engines — alone and as the demes of every island
// discipline, with a selector (tournament) that may name one member
// twice.
func TestMembersNeverAlias(t *testing.T) {
	prob := problems.OneMax{N: 40}
	engines := map[string]func(int, *rng.Source) ga.Engine{
		"generational": func(_ int, r *rng.Source) ga.Engine {
			return ga.NewGenerational(ga.Config{Problem: prob, PopSize: 12, Elitism: 2, RNG: r})
		},
		"steadystate": func(_ int, r *rng.Source) ga.Engine {
			return ga.NewSteadyState(ga.Config{Problem: prob, PopSize: 12, RNG: r}, true)
		},
		"cellular": func(deme int, r *rng.Source) ga.Engine {
			return cellular.New(cellular.Config{
				Problem: prob, Rows: 3, Cols: 4, Update: cellular.UpdatePolicy(deme % 5),
				Crossover: operators.Uniform{}, Mutator: operators.BitFlip{}, RNG: r,
			})
		},
	}
	policy := migration.Policy{Interval: 1, Count: 5, Select: migration.SelectTournament{K: 2}, Buffer: 1}
	sup := &supervise.Config{CheckpointEvery: 3, MaxSendRetries: 2}
	stop := core.MaxGenerations(30)
	for name, newEngine := range engines {
		checked := func(t *testing.T) func(int, *rng.Source) ga.Engine {
			return func(deme int, r *rng.Source) ga.Engine {
				return aliasChecked{Engine: newEngine(deme, r), t: t}
			}
		}
		model := func(t *testing.T, sync bool, res *supervise.Config) *Model {
			p := policy
			p.Sync = sync
			return New(Config{Topology: topology.Complete(4), Policy: p, NewEngine: checked(t), Seed: 5, Resilience: res})
		}
		t.Run(name+"/alone", func(t *testing.T) {
			e := checked(t)(0, rng.New(1))
			for g := 0; g < 30; g++ {
				e.Step()
			}
		})
		t.Run(name+"/sequential", func(t *testing.T) { model(t, true, nil).RunSequential(stop, engine.Control{}) })
		t.Run(name+"/sync", func(t *testing.T) { model(t, true, nil).RunParallel(stop, engine.Control{}) })
		t.Run(name+"/async", func(t *testing.T) { model(t, false, nil).RunParallel(stop, engine.Control{}) })
		t.Run(name+"/supervised-sync", func(t *testing.T) { model(t, true, sup).RunParallel(stop, engine.Control{}) })
		t.Run(name+"/supervised-async", func(t *testing.T) { model(t, false, sup).RunParallel(stop, engine.Control{}) })
		t.Run(name+"/wire", func(t *testing.T) {
			eps := transport.NewLoopback(2, 1)
			done := make(chan struct{}, len(eps))
			for i := range eps {
				er, mr := WireStreams(5, len(eps), i)
				e := checked(t)(i, er)
				go func() {
					defer func() { done <- struct{}{} }()
					RunWire(WireConfig{
						Self: i, Topology: topology.Ring(2), Endpoint: eps[i], Policy: policy,
						Engine: e, MigRNG: mr, MaxGens: 30,
					})
				}()
			}
			for range eps {
				<-done
			}
		})
	}
}

// TestExchangeSendsPreExchangeValues: a synchronous epoch delivers what
// each deme held before the epoch, although the Replacer copies into
// members that are themselves emigrants. The oracle is the epoch as it
// was written with clones: every deme's emigrants cloned first, then a
// fresh clone of the batch integrated into each neighbour. With every
// member emigrating, a deme that sent its members by reference would
// pass on immigrants it had just taken in.
func TestExchangeSendsPreExchangeValues(t *testing.T) {
	const pop = 6
	cfg := Config{
		Topology:  topology.Complete(3),
		Policy:    migration.Policy{Interval: 1, Count: pop},
		NewEngine: onemaxEngines(24, pop),
		Seed:      3,
	}
	m, ref := New(cfg), New(cfg)
	p := ref.cfg.Policy
	for epoch := 0; epoch < 3; epoch++ {
		m.exchangeOn(m.cfg.Topology)
		out := make([][]*core.Individual, len(ref.engines))
		for i, e := range ref.engines {
			out[i] = p.Select.Pick(e.Population(), ref.dir, p.Count, ref.migRNGs[i])
		}
		for i := range ref.engines {
			for _, nbr := range ref.cfg.Topology.Neighbors(i) {
				p.Replace.Integrate(ref.engines[nbr].Population(), ref.dir, migration.CloneBatch(out[i]), ref.migRNGs[nbr])
			}
		}
		for i, e := range m.engines {
			for j, ind := range e.Population().Members {
				if want := ref.engines[i].Population().Members[j]; ind.String() != want.String() {
					t.Fatalf("epoch %d, deme %d, member %d: %v, want %v", epoch, i, j, ind, want)
				}
			}
		}
	}
}
