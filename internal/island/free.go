package island

import (
	"context"
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
// context.Cause the record of who solved first.
type solvedAt int

// Error implements error.
func (solvedAt) Error() string { return "target reached" }

// pendingBatch is an undelivered migrant batch awaiting retry.
type pendingBatch struct {
	dest     int
	batch    []*core.Individual
	attempts int
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
	// and halts. Both are nil in wire mode, whose single loop checks the
	// target itself.
	ta     core.TargetAware
	solved context.CancelCauseFunc

	// sup is nil for an unsupervised deme: it steps directly and drops
	// refused batches. m is the owning Model, written only when a
	// supervised step fails.
	sup     *supervise.Supervisor
	m       *Model
	pending []pendingBatch

	// gen is the last generation the deme completed, delivered the number
	// of batches an endpoint accepted; runFree reads both after the join.
	gen       int
	delivered int64
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
	// Emigrate: queued retries first (oldest first), then a fresh clone
	// batch per link.
	before := d.delivered
	queued := d.pending
	d.pending = d.pending[len(d.pending):]
	for _, pb := range queued {
		d.deliver(pb)
	}
	if nbrs := d.routes.Neighbors(d.self); len(nbrs) > 0 {
		out := p.Select.Pick(d.e.Population(), d.dir, p.Count, d.mr)
		for _, nbr := range nbrs {
			d.deliver(pendingBatch{dest: nbr, batch: migration.CloneBatch(out), attempts: 1})
		}
	}
	info.Migrations = d.delivered - before
	// Immigrate: drain whatever has arrived.
	for {
		batch, ok := d.ep.Recv()
		if !ok {
			break
		}
		p.Replace.Integrate(d.e.Population(), d.dir, batch, d.mr)
	}
	return info
}

// deliver makes one best-effort endpoint send. An unsupervised deme drops
// a refused batch; a supervised one re-queues it for the next epoch and
// dead-letters batches whose receiver died or whose retries ran out.
func (d *freeDeme) deliver(pb pendingBatch) {
	if d.sup != nil && !d.sup.Router().Alive(pb.dest) {
		d.sup.DeadLetter(1)
		return
	}
	if d.ep.Send(pb.dest, pb.batch) {
		d.delivered++
		return
	}
	if d.sup == nil {
		return
	}
	if pb.attempts >= d.sup.Config().MaxSendRetries {
		d.sup.DeadLetter(1)
		return
	}
	pb.attempts++
	//pgalint:ignore boundedres bounded by MaxSendRetries: each batch re-queues at most that many times before dead-lettering, and Step drains pending every epoch
	d.pending = append(d.pending, pb)
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
	d.sup.DeadLetter(int64(len(d.pending)))
	d.pending = nil
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
// within one generation and the join below waits for them all. ctl's
// observers hear OnDone, once, with the assembled stats; there is no
// run-level OnGeneration to fire and no trace to record.
func (m *Model) runFree(maxGens int, sup *supervise.Supervisor, ctl engine.Control) *Result {
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
		opts := engine.Options{Stop: core.MaxGenerations(maxGens), SkipBest: true, Context: ctx}
		if sup != nil {
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
		res.StopReason = "target reached"
	case cause != nil:
		res.StopReason = "cancelled"
	case sup != nil && sup.Router().AliveCount() == 0:
		res.StopReason = "all demes dead"
	default:
		res.StopReason = "max generations"
	}
	m.finish(res)
	res.Elapsed = time.Since(start)
	for _, o := range ctl.Observers {
		o.OnDone(&res.RunStats)
	}
	return res
}
