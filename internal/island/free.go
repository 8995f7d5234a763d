package island

import (
	"context"
	"reflect"
	"sync"
	"time"

	"pga/internal/core"
	"pga/internal/engine"
	"pga/internal/ga"
	"pga/internal/migration"
	"pga/internal/rng"
	"pga/internal/supervise"
	"pga/internal/topology"
	"pga/internal/transport"
)

// solvedAt is the cause a free-running deme cancels the run's shared
// context with when its own population meets the target, carrying the
// generation it got there in. Every deme loop polls that context, so the
// others leave within a generation; the first cause wins, which makes
// context.Cause the record of who solved first. This cancel is the
// free-running discipline's stop at the optimum, the one a barriered run
// asks for with core.AtOptimum; it reads the same reason.
type solvedAt int

// Error implements error.
func (solvedAt) Error() string { return core.ReasonTarget }

// retryRing holds a supervised deme's refused migrant batches until
// their next attempt, oldest first, in a fixed ring of slots whose
// individuals are reused from batch to batch: an endpoint only borrows
// what it is sent, so a batch that must outlive its Send is copied into
// deme-owned storage. Every epoch offers each queued batch again and at
// most one fresh batch per neighbour, and a batch is dead-lettered once
// it has been offered MaxSendRetries times, so no more than neighbours ×
// (MaxSendRetries − 1) batches wait at once. A deme has at most Size − 1
// neighbours, however the Router heals, so a ring of (Size − 1) ×
// MaxSendRetries slots never fills; push refuses rather than grow if it
// ever does.
type retryRing struct {
	slots   []retrySlot
	head, n int
}

// retrySlot is one queued batch: its destination, the attempts made so
// far and the slot's own copy of the migrants.
type retrySlot struct {
	dest, attempts int
	batch          []*core.Individual
}

func newRetryRing(size int) *retryRing { return &retryRing{slots: make([]retrySlot, size)} }

// push copies batch into the slot after the newest, reporting false
// when every slot is taken.
func (q *retryRing) push(dest, attempts int, batch []*core.Individual) bool {
	if q.n == len(q.slots) {
		return false
	}
	s := &q.slots[(q.head+q.n)%len(q.slots)]
	s.dest, s.attempts = dest, attempts
	s.batch = copyBatch(s.batch, batch)
	q.n++
	return true
}

// pop removes the oldest batch and returns its slot, whose batch stays
// valid until the next push (which may copy it into another slot, or
// onto itself).
func (q *retryRing) pop() *retrySlot {
	s := &q.slots[q.head]
	q.head = (q.head + 1) % len(q.slots)
	q.n--
	return s
}

// copyBatch copies src into dst's individuals by value and returns dst
// resized to src, cloning into slots that hold no individual yet. dst
// and src come from one problem, so their genomes agree in type and
// length.
func copyBatch(dst, src []*core.Individual) []*core.Individual {
	if cap(dst) < len(src) {
		grown := make([]*core.Individual, len(src))
		copy(grown, dst[:cap(dst)])
		dst = grown
	}
	dst = dst[:len(src)]
	for i, m := range src {
		if dst[i] == nil {
			dst[i] = m.Clone()
		} else {
			dst[i].CopyFrom(m)
		}
	}
	return dst
}

// lend appends to dst the members of pop that idx names: a batch of
// references to the deme's own individuals, for a callee that copies
// what it keeps.
func lend(dst []*core.Individual, pop *core.Population, idx []int) []*core.Individual {
	for _, i := range idx {
		dst = append(dst, pop.Members[i])
	}
	return dst
}

// freeDeme is the engine.Stepper of the free-running discipline, one per
// deme: evolve, then — when the policy is due — emigrate over the deme's
// transport endpoint along routes and drain whatever has arrived. It never
// blocks on another deme (bounded-staleness async model).
//
// With a supervisor the step goes through RunStep: a failed step restores
// the deme's checkpoint and rewinds the loop to the checkpointed generation
// (re-doing the lost work), a deme out of restart budget halts its loop
// while the survivors route around it, and refused migrant batches are
// retried on later epochs and dead-lettered after their retry budget
// instead of being dropped.
//
// The deme lends its own members to the endpoint: one batch of member
// pointers goes to every neighbour, each Send borrows it, and the
// endpoint copies what it keeps. What arrives is lent by the endpoint
// until the next Recv, and the Replacer copies it in.
type freeDeme struct {
	self   int
	e      ga.Engine
	dir    core.Direction
	policy migration.Policy
	mr     *rng.Source
	ep     transport.Endpoint
	// routes is the migration graph: the raw topology, the supervisor's
	// healed Router, or a wire island's peer-liveness Router.
	routes topology.Topology

	// ta and solved are the in-process solve check: a deme whose own
	// population meets the target cancels the run's context (see solvedAt)
	// and halts. Both are nil in wire mode, whose single loop records the
	// solve point itself and runs on to its generation cap.
	ta     core.TargetAware
	solved context.CancelCauseFunc

	// sup is nil for an unsupervised deme: it steps directly and drops
	// refused batches. m is the owning Model, written only when a
	// supervised step fails.
	sup     *supervise.Supervisor
	m       *Model
	retries *retryRing

	// picked and out are the emigrant indices and the batch of member
	// pointers lent to Send, reused every epoch.
	picked []int
	out    []*core.Individual

	// gen is the last generation the deme completed, delivered the number
	// of batches an endpoint accepted and refused the number of received
	// batches that did not fit the deme (see fits); runFree and RunWire
	// read them after the loop.
	gen       int
	delivered int64
	refused   int64
}

// Step implements engine.Stepper.
func (d *freeDeme) Step(g int) engine.StepInfo {
	var info engine.StepInfo
	if d.sup == nil {
		d.e.Step()
	} else if out := d.sup.RunStep(d.self, g, d.e); out.Status != supervise.StepOK {
		return d.restart(g, out)
	}
	d.gen = g
	if d.ta != nil && d.ta.Solved(d.e.Population().BestFitness(d.dir)) {
		d.solved(solvedAt(g))
		info.Halt = true
		return info
	}
	p := d.policy
	if !p.Due(g) {
		return info
	}
	// Emigrate: queued retries first (oldest first), then this epoch's
	// emigrants, lent to every link.
	before := d.delivered
	if d.retries != nil {
		for k := d.retries.n; k > 0; k-- {
			s := d.retries.pop()
			d.deliver(s.dest, s.attempts, s.batch)
		}
	}
	if nbrs := d.routes.Neighbors(d.self); len(nbrs) > 0 {
		pop := d.e.Population()
		d.picked = p.Select.Indices(pop, d.dir, p.Count, d.mr, d.picked[:0])
		d.out = lend(d.out[:0], pop, d.picked)
		for _, nbr := range nbrs {
			d.deliver(nbr, 1, d.out)
		}
	}
	info.Migrations = d.delivered - before
	// Immigrate: drain whatever has arrived.
	for {
		batch, ok := d.ep.Recv()
		if !ok {
			break
		}
		if !fits(d.e.Population(), batch) {
			d.refused++
			continue
		}
		p.Replace.Integrate(d.e.Population(), d.dir, batch, d.mr)
	}
	return info
}

// fits reports whether every migrant's genome has the concrete type and
// length of the deme's own. A wire peer running another problem size
// sends well-formed frames of genomes that would not fit: copying one in
// would panic, and so would crossing it with a member.
func fits(pop *core.Population, batch []*core.Individual) bool {
	if len(pop.Members) == 0 {
		return true
	}
	own := pop.Members[0].Genome
	for _, m := range batch {
		if reflect.TypeOf(m.Genome) != reflect.TypeOf(own) || m.Genome.Len() != own.Len() {
			return false
		}
	}
	return true
}

// deliver makes one best-effort endpoint send of a batch on its
// attempts-th offer. An unsupervised deme drops a refused batch; a
// supervised one copies it into its retry ring for the next epoch and
// dead-letters batches whose receiver died or whose retries ran out.
func (d *freeDeme) deliver(dest, attempts int, batch []*core.Individual) {
	if d.sup != nil && !d.sup.Router().Alive(dest) {
		d.sup.DeadLetter(1)
		return
	}
	if d.ep.Send(dest, batch) {
		d.delivered++
		return
	}
	if d.sup == nil {
		return
	}
	if attempts >= d.sup.Config().MaxSendRetries || !d.retries.push(dest, attempts+1, batch) {
		d.sup.DeadLetter(1)
	}
}

// restart handles a failed supervised step: rewind to the checkpoint on a
// replacement engine, or — budget exhausted — retire the deme and halt.
func (d *freeDeme) restart(g int, out supervise.StepOutcome) engine.StepInfo {
	eng, frozen, ok := d.sup.Restart(d.self, g, failureKind(out), out.Err)
	if !ok {
		d.m.retireDeme(d.self, frozen)
		return engine.StepInfo{Rewound: true, ResumeAt: g - 1, Halt: true}
	}
	d.e = eng
	d.m.engines[d.self] = eng
	return engine.StepInfo{Restarts: 1, Rewound: true, ResumeAt: d.sup.ResumeGen(d.self)}
}

// checkpoint is a supervised deme's OnGeneration hook: it snapshots itself
// on every checkpoint-due generation, including generation 0 before the
// first step (rewound restart iterations never reach this hook, so a
// restart does not re-checkpoint the restored state).
func (d *freeDeme) checkpoint(s core.Status) {
	if d.sup.CheckpointDue(s.Generation) {
		_ = d.sup.Checkpoint(d.self, d.e.Population(), s.Generation, d.e.Evaluations())
	}
}

// deadLetterPending is a supervised deme's OnDone hook: batches still
// queued when the loop exits — run over, deme solved, or deme dead — never
// arrived, and the counters must say so.
func (d *freeDeme) deadLetterPending(*core.RunStats) {
	d.sup.DeadLetter(int64(d.retries.n))
	d.retries.n = 0
}

// Best implements engine.Stepper: the deme's own best (the in-process
// loops run SkipBest and compute the global best after the join).
func (d *freeDeme) Best() (*core.Individual, float64) {
	pop := d.e.Population()
	if i := pop.Best(d.dir); i >= 0 {
		return pop.Members[i], pop.Members[i].Fitness
	}
	return nil, d.dir.Worst()
}

// Evaluations implements engine.Stepper.
func (d *freeDeme) Evaluations() int64 { return d.e.Evaluations() }

// Direction implements engine.Stepper.
func (d *freeDeme) Direction() core.Direction { return d.dir }

// MeanFitness implements engine.MeanReporter.
func (d *freeDeme) MeanFitness() float64 { return d.e.Population().MeanFitness() }

// runFree runs every deme as a freeDeme in its own goroutine, one
// engine.Loop each, over in-process loopback endpoints — the same seam
// wire-mode islands run over (internal/transport) — and assembles the
// Result once they have joined. A supervised run routes over the healed
// topology and hangs checkpointing and dead-letter draining on each loop's
// observer hooks.
//
// This discipline has no run-level generation — n loops, each at its own —
// so of the caller's control the deme loops take the context only (a child
// of it, which a solving deme also cancels): cancellation stops every deme
// within one generation and the join below waits for them all. Every deme
// loop polls the one stop, which is why it must be stateless. ctl's
// observers hear OnDone, once, with the assembled stats; there is no
// run-level OnGeneration to fire and no trace to record.
func (m *Model) runFree(stop core.StopCondition, sup *supervise.Supervisor, ctl engine.Control) *Result {
	start := time.Now()
	ctx, solved := context.WithCancelCause(ctl.Ctx())
	defer solved(nil)
	ta, _ := m.problem.(core.TargetAware)
	routes := m.cfg.Topology
	if sup != nil {
		routes = sup.Router()
	}
	eps := transport.NewLoopback(len(m.engines), m.cfg.Policy.Buffer)
	demes := make([]*freeDeme, len(m.engines))

	var wg sync.WaitGroup
	for i := range demes {
		d := &freeDeme{
			self: i, e: m.engines[i], dir: m.dir, policy: m.cfg.Policy,
			mr: m.migRNGs[i], ep: eps[i], routes: routes,
			ta: ta, solved: solved, sup: sup, m: m,
		}
		demes[i] = d
		opts := engine.Options{Stop: stop, SkipBest: true, Context: ctx}
		if sup != nil {
			d.retries = newRetryRing((routes.Size() - 1) * sup.Config().MaxSendRetries)
			opts.Observers = []engine.Observer{engine.Funcs{Generation: d.checkpoint, Done: d.deadLetterPending}}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var stats core.RunStats
			engine.Loop(d, opts, &stats)
		}()
	}
	wg.Wait()

	res := &Result{}
	for i, d := range demes {
		res.Net.Add(eps[i].Stats())
		res.Migrations += d.delivered
		res.Refused += d.refused
		res.Generations = max(res.Generations, d.gen)
	}
	var best *core.Individual
	if best, res.BestFitness = m.globalBestRef(); best != nil {
		res.Best = best.Clone()
	}
	res.Evaluations = m.totalEvaluations()
	cause := context.Cause(ctx)
	gen, solvedFirst := cause.(solvedAt)
	switch {
	case solvedFirst:
		// Evaluation counters cannot be snapshotted at the instant of
		// solving without racing the other demes; the post-stop total is
		// a slight overcount and is documented as such.
		res.Solved = true
		res.SolvedAtEval = res.Evaluations
		res.SolvedAtGen = int(gen)
		res.StopReason = core.ReasonTarget
	case cause != nil:
		res.StopReason = "cancelled"
	case sup != nil && sup.Router().AliveCount() == 0:
		res.StopReason = "all demes dead"
	default:
		res.StopReason = stop.Reason()
	}
	m.finish(res)
	res.Elapsed = time.Since(start)
	for _, o := range ctl.Observers {
		o.OnDone(&res.RunStats)
	}
	return res
}
