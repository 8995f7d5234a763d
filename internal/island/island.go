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
// The model has two communication disciplines (Alba & Troya 2001) and the
// package has one engine.Stepper for each; every run mode is one of the
// two under the shared engine.Loop, optionally supervised
// (Config.Resilience, internal/supervise):
//
//   - barrierStepper (barrier.go): all demes complete a generation, then
//     migrants are exchanged centrally and losslessly. RunSequential
//     advances the demes in the calling goroutine; RunParallel with a Sync
//     policy runs a goroutine per deme behind a per-generation barrier.
//     Both are fully deterministic and bit-identical to each other.
//   - freeDeme (free.go): each deme free-runs its own loop and exchanges
//     migrants best-effort over a transport.Endpoint — the CSP analogue
//     of the MPI/PVM message passing used by the libraries in the survey's
//     Table 1. RunParallel with an async policy runs one per goroutine over
//     in-process loopback endpoints; RunWire (wire.go) runs one per OS
//     process over whatever endpoint it is given. Migrant arrival order is
//     scheduling dependent — the only permitted nondeterminism in the
//     library.
package island

import (
	"pga/internal/core"
	"pga/internal/engine"
	"pga/internal/ga"
	"pga/internal/migration"
	"pga/internal/rng"
	"pga/internal/supervise"
	"pga/internal/topology"
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

// maybeRewire rewires a dynamic topology on schedule, reporting whether
// it did. epoch counts completed migration epochs (1-based).
func (m *Model) maybeRewire(epoch int64) bool {
	rw, ok := m.cfg.Topology.(rewirable)
	if !ok || m.cfg.RewireEvery <= 0 || epoch%int64(m.cfg.RewireEvery) != 0 {
		return false
	}
	rw.Rewire()
	return true
}

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
			p.Replace.Integrate(m.engines[nbr].Population(), m.dir, migration.CloneBatch(outgoing[i]), m.migRNGs[nbr])
			batches++
		}
	}
	return batches
}

// RunSequential advances all demes in lockstep until stop fires,
// performing synchronous migration whenever the policy is due. It is fully
// deterministic for a given Config; ctl is the caller's run control.
func (m *Model) RunSequential(stop core.StopCondition, ctl engine.Control) *Result {
	if stop == nil {
		panic("island: stop condition required")
	}
	return m.runBarrier(false, nil, engine.Options{
		Stop:              stop,
		InitialSolve:      true,
		InitialTracePoint: true,
	}, ctl)
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
// accounting in RunStats is filled by engine.Loop, or by runFree).
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
// bounded non-blocking endpoints. Config.Resilience supervises either.
// ctl is the caller's run control; the free-running discipline has no
// run-level generation, so there it cancels every deme and its observers
// hear OnDone only (see runFree).
func (m *Model) RunParallel(maxGens int, ctl engine.Control) *Result {
	var sup *supervise.Supervisor
	if m.cfg.Resilience != nil {
		sup = supervise.New(*m.cfg.Resilience, m.cfg.Faults, m.cfg.Topology,
			m.cfg.NewEngine, m.restartRNG)
		for i := range m.engines {
			sup.Attach(i, m.engineRNGs[i])
		}
		m.sup = sup
		m.deadPops = make([]*core.Population, len(m.engines))
	}
	if !m.cfg.Policy.Sync {
		return m.runFree(maxGens, sup, ctl)
	}
	return m.runBarrier(true, sup, engine.Options{
		Stop:        core.MaxGenerations(maxGens),
		HaltOnSolve: true,
	}, ctl)
}

// failureKind maps a failed supervised step to its failure class.
func failureKind(out supervise.StepOutcome) supervise.FailureKind {
	if out.Status == supervise.StepTimedOut {
		return supervise.FailureTimeout
	}
	return supervise.FailurePanic
}

// retireDeme records a dead deme's frozen population so statistics never
// touch its abandoned engine again.
func (m *Model) retireDeme(i int, frozen *core.Population) {
	if frozen == nil {
		frozen = core.NewPopulation(0)
	}
	m.deadPops[i] = frozen
}
