// Package island implements the coarse-grained (island / distributed /
// multi-deme) parallel genetic algorithm — the model the survey calls the
// dominant PGA form, introduced by Tanese (1987) and Pettey (1987) and
// named by Manderick & Spiessens / Gordon / Adamidis (§2).
//
// Each deme runs an independent evolution engine (generational,
// steady-state or cellular — see internal/ga and internal/cellular) and
// periodically exchanges individuals with its topological neighbours under
// a migration.Policy.
//
// Two execution modes are provided:
//
//   - RunSequential: all demes advance in lockstep inside one goroutine.
//     Fully deterministic; the numeric experiments use this mode.
//   - RunParallel: one goroutine per deme, migrants carried by channels —
//     the CSP analogue of the MPI/PVM message passing used by the
//     libraries in the survey's Table 1. Synchronous policies barrier
//     every generation; asynchronous policies exchange through bounded
//     non-blocking buffers (Alba & Troya 2001's async model).
package island

import (
	"sync"
	"sync/atomic"
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

// Config describes an island-model run.
type Config struct {
	// Topology is the inter-deme graph; its Size is the deme count
	// (required).
	Topology topology.Topology
	// Policy is the migration policy (defaults applied via WithDefaults).
	Policy migration.Policy
	// NewEngine builds deme i's evolution engine from its private random
	// stream (required). Engines must not be shared between demes.
	NewEngine func(deme int, r *rng.Source) ga.Engine
	// RewireEvery rewires a dynamic topology (one implementing
	// Rewire()) after every N migration epochs; 0 never rewires. It has
	// effect only in the deterministic modes (sequential and
	// sync-parallel) — the survey's §1.1 "static and dynamic topologies".
	RewireEvery int
	// Seed seeds the master random stream from which every deme's engine
	// and migration streams are split.
	Seed uint64
	// Resilience enables the supervision layer for RunParallel: panics
	// in a deme's step are recovered, crashed demes restart from
	// periodic checkpoints, hung demes are detected by heartbeat and the
	// topology is healed around demes that exhaust their restart budget
	// (see internal/supervise). nil runs unsupervised (a deme panic is a
	// process panic, exactly as before).
	Resilience *supervise.Config
	// Faults optionally injects deterministic failures into a supervised
	// run — the test harness for Resilience. Ignored when Resilience is
	// nil.
	Faults *supervise.FaultPlan
}

// rewirable is implemented by dynamic topologies (topology.Dynamic).
type rewirable interface{ Rewire() }

// Result summarises an island-model run. The embedded core.RunStats holds
// the accounting common to every runtime (best, generations, evaluations,
// solve point, elapsed, trace); in asynchronous modes SolvedAtEval is the
// post-stop total and slightly overcounts the instant of solving, because
// other demes' counters cannot be snapshotted without racing them.
type Result struct {
	core.RunStats
	// Migrations counts migrant batches delivered (one batch = Count
	// individuals sent over one link).
	Migrations int64
	// PerDemeBest is the final best fitness of each deme (a dead deme
	// reports its last checkpoint).
	PerDemeBest []float64

	// Supervision counters (populated only when Config.Resilience is
	// set; see internal/supervise).

	// Restarts counts deme restarts from checkpoint.
	Restarts int64
	// PanicsRecovered counts step panics converted into restarts.
	PanicsRecovered int64
	// HeartbeatTimeouts counts missed per-generation heartbeats.
	HeartbeatTimeouts int64
	// DeadLettered counts async migrant batches dropped after their
	// retry budget (wire-mode runs additionally count transport-level
	// losses here; see Net).
	DeadLettered int64
	// Net is the transport-level delivery accounting: the summed
	// endpoint stats of the asynchronous in-process modes, or the
	// single endpoint's stats of a wire-mode run (RunWire). Zero for
	// the sequential and synchronous modes, which migrate centrally.
	Net core.NetStats
	// DeadDemes lists demes that exhausted their restart budget and were
	// routed around.
	DeadDemes []int
	// Failures is the ordered log of typed deme-failure events.
	Failures []supervise.DemeFailure
}

// Model is an instantiated island system.
type Model struct {
	cfg        Config
	engines    []ga.Engine
	engineRNGs []*rng.Source
	migRNGs    []*rng.Source
	restartRNG *rng.Source
	dir        core.Direction
	problem    core.Problem

	// Supervised-run state: sup is the active supervisor and deadPops
	// holds the frozen last-checkpoint population of each dead deme (its
	// abandoned engine may still be mutated by a hung goroutine and must
	// never be read again).
	sup      *supervise.Supervisor
	deadPops []*core.Population

	// outgoing is the pooled per-deme emigrant list of synchronous
	// exchanges (the migrant clones themselves are necessarily fresh —
	// they enter the receiving populations).
	outgoing [][]*core.Individual
}

// New builds the demes. Deme i's engine stream and migration stream are
// split deterministically from the master seed, so sequential and
// sync-parallel runs are reproducible.
func New(cfg Config) *Model {
	if cfg.Topology == nil {
		panic("island: Config.Topology is required")
	}
	if cfg.NewEngine == nil {
		panic("island: Config.NewEngine is required")
	}
	cfg.Policy = cfg.Policy.WithDefaults()
	n := cfg.Topology.Size()
	if n < 1 {
		panic("island: topology has no demes")
	}
	master := rng.New(cfg.Seed)
	m := &Model{
		cfg:     cfg,
		engines: make([]ga.Engine, n),
	}
	m.engineRNGs, m.migRNGs = newDemeStreams(master, n)
	for i := 0; i < n; i++ {
		m.engines[i] = cfg.NewEngine(i, m.engineRNGs[i])
	}
	// The restart stream is split last, so its presence does not perturb
	// the per-deme streams of existing seeded runs.
	m.restartRNG = master.Split()
	m.problem = m.engines[0].Problem()
	m.dir = m.problem.Direction()
	return m
}

// newDemeStreams splits the per-deme RNG streams off the master source:
// engine stream then migration stream, per deme in id order. WireStreams
// indexes the same split for one-island-per-process runs, so a wire run
// reproduces the in-process streams bit-for-bit.
func newDemeStreams(master *rng.Source, n int) (engineRNGs, migRNGs []*rng.Source) {
	engineRNGs = make([]*rng.Source, n)
	migRNGs = make([]*rng.Source, n)
	for i := 0; i < n; i++ {
		engineRNGs[i] = master.Split()
		migRNGs[i] = master.Split()
	}
	return engineRNGs, migRNGs
}

// Demes returns the number of demes.
func (m *Model) Demes() int { return len(m.engines) }

// Engines exposes the deme engines (read-only use intended; tests and
// instrumentation).
func (m *Model) Engines() []ga.Engine { return m.engines }

// demePop returns the population used for deme i's statistics: the live
// engine's, or — for a deme declared dead under supervision — its frozen
// last-checkpoint population (the abandoned engine may still be mutated
// by a hung goroutine and is never read again).
func (m *Model) demePop(i int) *core.Population {
	if m.deadPops != nil && m.deadPops[i] != nil {
		return m.deadPops[i]
	}
	return m.engines[i].Population()
}

// totalEvaluations sums evaluations across demes. Dead demes contribute
// their last checkpointed count (accumulated by the supervisor), as do
// the replaced engines of restarted demes.
func (m *Model) totalEvaluations() int64 {
	var t int64
	if m.sup != nil {
		t = m.sup.RetiredEvaluations()
	}
	for i, e := range m.engines {
		if m.deadPops != nil && m.deadPops[i] != nil {
			continue
		}
		t += e.Evaluations()
	}
	return t
}

// globalBestRef returns the best individual across demes as a live
// reference into its deme (valid only until the next step) — the
// allocation-free form used by the per-generation run loops.
func (m *Model) globalBestRef() (*core.Individual, float64) {
	bestFit := m.dir.Worst()
	var best *core.Individual
	for i := range m.engines {
		pop := m.demePop(i)
		if j := pop.Best(m.dir); j >= 0 && m.dir.Better(pop.Members[j].Fitness, bestFit) {
			bestFit = pop.Members[j].Fitness
			best = pop.Members[j]
		}
	}
	return best, bestFit
}

// globalBest returns a clone of the best individual across demes.
func (m *Model) globalBest() (*core.Individual, float64) {
	best, bestFit := m.globalBestRef()
	if best != nil {
		best = best.Clone()
	}
	return best, bestFit
}

// maybeRewire rewires a dynamic topology on schedule, reporting whether
// it did. epoch counts completed migration epochs.
func (m *Model) maybeRewire(epoch int64) bool {
	if m.cfg.RewireEvery <= 0 || epoch == 0 || epoch%int64(m.cfg.RewireEvery) != 0 {
		return false
	}
	if rw, ok := m.cfg.Topology.(rewirable); ok {
		rw.Rewire()
		return true
	}
	return false
}

// exchange performs one synchronous migration epoch over the configured
// topology.
func (m *Model) exchange() int64 { return m.exchangeOn(m.cfg.Topology) }

// exchangeOn performs one synchronous migration epoch over topo: every
// deme's emigrants are picked from the pre-exchange populations, then
// delivered. Returns the number of batches sent. Demes with no outgoing
// links (including dead demes under a healed Router, whose lists are
// empty and who appear in no live deme's list) take no part.
func (m *Model) exchangeOn(topo topology.Topology) int64 {
	p := m.cfg.Policy
	n := len(m.engines)
	if m.outgoing == nil {
		m.outgoing = make([][]*core.Individual, n)
	}
	outgoing := m.outgoing
	for i := 0; i < n; i++ {
		outgoing[i] = nil
		if len(topo.Neighbors(i)) == 0 {
			continue
		}
		outgoing[i] = p.Select.Pick(m.engines[i].Population(), m.dir, p.Count, m.migRNGs[i])
	}
	var batches int64
	for i := 0; i < n; i++ {
		for _, nbr := range topo.Neighbors(i) {
			if len(outgoing[i]) == 0 {
				continue
			}
			// Each neighbour receives its own clones.
			migrants := make([]*core.Individual, len(outgoing[i]))
			for k, ind := range outgoing[i] {
				migrants[k] = ind.Clone()
			}
			p.Replace.Integrate(m.engines[nbr].Population(), m.dir, migrants, m.migRNGs[nbr])
			batches++
		}
	}
	return batches
}

// modelStepper is the engine.Stepper state shared by the lockstep
// (sequential) and barriered (sync-parallel) runners: global best,
// evaluation totals and the migration-epoch counter live here; only the
// way demes advance differs.
type modelStepper struct {
	m      *Model
	epochs int64
}

// migrateDue runs one synchronous migration epoch over topo when the
// policy is due at gen, counting completed epochs for dynamic rewiring.
func (s *modelStepper) migrateDue(gen int) (batches int64) {
	if !s.m.cfg.Policy.Due(gen) {
		return 0
	}
	batches = s.m.exchange()
	s.epochs++
	s.m.maybeRewire(s.epochs)
	return batches
}

// Best implements engine.Stepper.
func (s *modelStepper) Best() (*core.Individual, float64) { return s.m.globalBestRef() }

// Evaluations implements engine.Stepper.
func (s *modelStepper) Evaluations() int64 { return s.m.totalEvaluations() }

// Direction implements engine.Stepper.
func (s *modelStepper) Direction() core.Direction { return s.m.dir }

// MeanFitness implements engine.MeanReporter.
func (s *modelStepper) MeanFitness() float64 { return s.m.meanFitness() }

// lockstepStepper advances every deme in the calling goroutine.
type lockstepStepper struct{ modelStepper }

// Step implements engine.Stepper.
func (s *lockstepStepper) Step(gen int) engine.StepInfo {
	for _, e := range s.m.engines {
		e.Step()
	}
	return engine.StepInfo{Migrations: s.migrateDue(gen)}
}

// RunSequential advances all demes in lockstep until stop fires,
// performing synchronous migration whenever the policy is due. It is fully
// deterministic for a given Config.
func (m *Model) RunSequential(stop core.StopCondition, trace bool) *Result {
	if stop == nil {
		panic("island: stop condition required")
	}
	res := &Result{}
	ta, _ := m.problem.(core.TargetAware)
	totals := engine.Loop(&lockstepStepper{modelStepper{m: m}}, engine.Options{
		Stop:              stop,
		Target:            ta,
		InitialSolve:      true,
		Trace:             trace,
		InitialTracePoint: true,
	}, &res.RunStats)
	res.Migrations = totals.Migrations
	m.finish(res)
	return res
}

// meanFitness returns the mean fitness over all demes' members.
func (m *Model) meanFitness() float64 {
	sum, n := 0.0, 0
	for i := range m.engines {
		for _, ind := range m.demePop(i).Members {
			if ind.Evaluated {
				sum += ind.Fitness
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// finish fills the island-specific tail of a Result (the common
// accounting in RunStats is filled by engine.Loop).
func (m *Model) finish(res *Result) {
	res.PerDemeBest = make([]float64, len(m.engines))
	for i := range m.engines {
		res.PerDemeBest[i] = m.demePop(i).BestFitness(m.dir)
	}
	if m.sup != nil {
		res.Restarts = m.sup.Restarts()
		res.PanicsRecovered = m.sup.PanicsRecovered()
		res.HeartbeatTimeouts = m.sup.HeartbeatTimeouts()
		res.DeadLettered = m.sup.DeadLettered()
		res.DeadDemes = m.sup.Router().Dead()
		res.Failures = m.sup.Failures()
	}
}

// RunParallel executes the island model with one goroutine per deme for at
// most maxGens island generations, stopping early when the problem's known
// optimum is found. Policy.Sync selects barriered generations (globally
// deterministic); otherwise demes free-run and exchange migrants through
// bounded non-blocking channels (migrant arrival order is scheduling
// dependent — the only permitted nondeterminism in the library).
func (m *Model) RunParallel(maxGens int, trace bool) *Result {
	if m.cfg.Resilience != nil {
		sup := supervise.New(*m.cfg.Resilience, m.cfg.Faults, m.cfg.Topology,
			m.cfg.NewEngine, m.restartRNG)
		for i := range m.engines {
			sup.Attach(i, m.engineRNGs[i])
		}
		m.sup = sup
		m.deadPops = make([]*core.Population, len(m.engines))
		if m.cfg.Policy.Sync {
			return m.runParallelSyncSupervised(maxGens, trace, sup)
		}
		return m.runParallelAsyncSupervised(maxGens, sup)
	}
	if m.cfg.Policy.Sync {
		return m.runParallelSync(maxGens, trace)
	}
	return m.runParallelAsync(maxGens)
}

// syncStepper advances every deme behind a per-generation barrier.
type syncStepper struct{ modelStepper }

// Step implements engine.Stepper.
func (s *syncStepper) Step(gen int) engine.StepInfo {
	var wg sync.WaitGroup
	for _, e := range s.m.engines {
		wg.Add(1)
		go func(e ga.Engine) {
			defer wg.Done()
			e.Step()
		}(e)
	}
	wg.Wait()
	return engine.StepInfo{Migrations: s.migrateDue(gen)}
}

// runParallelSync: barrier per generation, central migration.
func (m *Model) runParallelSync(maxGens int, trace bool) *Result {
	res := &Result{}
	ta, _ := m.problem.(core.TargetAware)
	totals := engine.Loop(&syncStepper{modelStepper{m: m}}, engine.Options{
		Stop:        core.MaxGenerations(maxGens),
		Target:      ta,
		HaltOnSolve: true,
		Trace:       trace,
	}, &res.RunStats)
	res.Migrations = totals.Migrations
	m.finish(res)
	return res
}

// demeHalt is the per-deme stop condition of the asynchronous modes: a
// free-running deme leaves its loop when any deme has solved or the
// generation cap is reached.
type demeHalt struct {
	solved *atomic.Bool
	max    int
}

// Done implements core.StopCondition.
func (h demeHalt) Done(s core.Status) bool { return s.Generation >= h.max || h.solved.Load() }

// Reason implements core.StopCondition.
func (h demeHalt) Reason() string { return "max generations" }

// asyncDeme is one free-running deme's engine.Stepper: evolve, check the
// deme's own population against the target, then (when the policy is due)
// emigrate over its transport endpoint and drain its inbox. The global
// best is computed after the demes join, so its loop runs with SkipBest.
type asyncDeme struct {
	m         *Model
	i         int
	e         ga.Engine
	mr        *rng.Source
	nbrs      []int
	ep        transport.Endpoint
	solved    *atomic.Bool
	solvedGen *atomic.Int64
	gens      []int
	ta        core.TargetAware
}

// Step implements engine.Stepper.
func (d *asyncDeme) Step(g int) engine.StepInfo {
	var info engine.StepInfo
	d.e.Step()
	d.gens[d.i] = g
	if d.ta != nil {
		if f := d.e.Population().BestFitness(d.m.dir); d.ta.Solved(f) {
			if d.solved.CompareAndSwap(false, true) {
				d.solvedGen.Store(int64(g))
			}
			info.Halt = true
			return info
		}
	}
	p := d.m.cfg.Policy
	if p.Due(g) {
		// Emigrate: best-effort offer of a fresh clone batch per link.
		// A refused batch (receiver's buffer full) is dropped — never
		// block evolution (bounded-staleness async model).
		if len(d.nbrs) > 0 {
			out := p.Select.Pick(d.e.Population(), d.m.dir, p.Count, d.mr)
			for _, nbr := range d.nbrs {
				if d.ep.Send(nbr, migration.CloneBatch(out)) {
					info.Migrations++
				}
			}
		}
		// Immigrate: drain whatever has arrived.
		for {
			batch, ok := d.ep.Recv()
			if !ok {
				break
			}
			p.Replace.Integrate(d.e.Population(), d.m.dir, batch, d.mr)
		}
	}
	return info
}

// Best implements engine.Stepper (unused: the deme loops run SkipBest).
func (d *asyncDeme) Best() (*core.Individual, float64) { return nil, d.m.dir.Worst() }

// Evaluations implements engine.Stepper.
func (d *asyncDeme) Evaluations() int64 { return d.e.Evaluations() }

// Direction implements engine.Stepper.
func (d *asyncDeme) Direction() core.Direction { return d.m.dir }

// runParallelAsync: free-running demes exchanging migrants over
// in-process loopback transport endpoints, one engine.Loop per deme
// goroutine. The endpoints are the same seam wire-mode islands run
// over (internal/transport), with Loopback as the medium.
func (m *Model) runParallelAsync(maxGens int) *Result {
	start := time.Now()
	res := &Result{}
	ta, _ := m.problem.(core.TargetAware)
	p := m.cfg.Policy
	n := len(m.engines)

	eps := transport.NewLoopback(n, p.Buffer)
	var solved atomic.Bool
	var solvedGen atomic.Int64
	gens := make([]int, n)
	totals := make([]engine.Totals, n)

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d := &asyncDeme{
				m: m, i: i, e: m.engines[i], mr: m.migRNGs[i],
				nbrs: m.cfg.Topology.Neighbors(i), ep: eps[i],
				solved: &solved, solvedGen: &solvedGen, gens: gens, ta: ta,
			}
			var stats core.RunStats
			totals[i] = engine.Loop(d, engine.Options{
				Stop:     demeHalt{solved: &solved, max: maxGens},
				SkipBest: true,
			}, &stats)
		}(i)
	}
	wg.Wait()

	for _, ep := range eps {
		res.Net.Add(ep.Stats())
	}
	m.finishAsync(res, totals, gens, &solved, &solvedGen)
	res.Elapsed = time.Since(start)
	return res
}

// finishAsync fills a Result after the deme goroutines of an asynchronous
// run have joined: global best, migration totals, solve point and the
// maximum per-deme generation.
func (m *Model) finishAsync(res *Result, totals []engine.Totals, gens []int, solved *atomic.Bool, solvedGen *atomic.Int64) {
	res.Best, res.BestFitness = m.globalBest()
	for _, t := range totals {
		res.Migrations += t.Migrations
	}
	res.StopReason = "max generations"
	if solved.Load() {
		res.Solved = true
		// In async mode evaluation counters cannot be snapshotted at the
		// instant of solving without racing other demes; the post-stop
		// total is a slight overcount and is documented as such.
		res.SolvedAtEval = m.totalEvaluations()
		res.SolvedAtGen = int(solvedGen.Load())
		res.StopReason = "target reached"
	}
	for _, g := range gens {
		if g > res.Generations {
			res.Generations = g
		}
	}
	res.Evaluations = m.totalEvaluations()
	m.finish(res)
}
