// Package supervise is the robustness layer of the parallel island model:
// it wraps each deme goroutine of island.RunParallel in a supervisor that
// recovers panics, restarts crashed demes from periodic in-memory
// checkpoints, detects hung demes through per-generation heartbeats, and
// heals the migration topology around demes that are declared dead.
//
// The survey's §4 quotes Gagné, Parizeau & Dubreuil's three properties a
// distributed EC system must offer — transparency, robustness,
// adaptivity. The repository's master–slave farm (internal/masterslave)
// delivers them at the evaluation level; this package makes the real
// goroutine-per-deme runtime deliver them: a panicking fitness
// function costs one deme one checkpoint interval instead of the whole
// process, a wedged evaluation is detected and the deme replaced, and a
// deme that exhausts its restart budget is routed around rather than
// hanging the synchronisation barrier forever.
//
// Failure semantics. A restarted deme resumes from its last checkpoint on
// a *fresh* split RNG stream: restoring the checkpointed stream would
// deterministically replay the crash (same draws, same poisoned
// individual), so supervision deliberately trades bit-exact resumption —
// persist's headline guarantee, still available for clean shutdowns — for
// forward progress. Work a deme performed after its last checkpoint is
// lost and excluded from evaluation totals.
//
// Wiring. There is no supervised runner: the island package's two
// steppers (barrierStepper, freeDeme) each take an optional *Supervisor
// and, when it is non-nil, call RunStep/Restart per generation in place
// of a direct engine step. Checkpoints are taken from an engine.Funcs
// OnGeneration hook, a rewound restart is reported to the shared run loop
// (internal/engine) through StepInfo.Rewound/ResumeAt, and async
// dead-letter draining rides the OnDone hook.
//
// Everything is testable deterministically: FaultPlan scripts panics and
// hangs at exact (deme, generation) coordinates, so the package's own
// tests and experiment E15 run the same seeded workload with and without
// injected faults under -race.
package supervise

import (
	"sync"
	"sync/atomic"
	"time"

	"pga/internal/core"
	"pga/internal/ga"
	"pga/internal/persist"
	"pga/internal/rng"
	"pga/internal/topology"
)

// Config tunes the supervision layer. The zero value is usable; zero
// fields select the documented defaults via WithDefaults.
type Config struct {
	// CheckpointEvery is the number of generations between in-memory
	// checkpoints of each deme; default 5. Smaller values bound the work
	// lost to a crash at the price of more serialisation.
	CheckpointEvery int
	// MaxRestarts is the per-deme restart budget; when exhausted the
	// deme is declared dead and the topology healed around it.
	// Default 3; negative disables restarts entirely (the first failure
	// kills the deme).
	MaxRestarts int
	// Heartbeat is the per-generation deadline: a deme whose step does
	// not complete within it is declared hung, abandoned and restarted.
	// 0 disables hang detection (steps run inline, panics are still
	// recovered).
	Heartbeat time.Duration
	// Backoff is the delay before the first restart of a deme; it
	// doubles on every consecutive restart of the same deme (capped at
	// 64×). Default 1ms.
	Backoff time.Duration
	// MaxSendRetries bounds how many migration epochs an undeliverable
	// async migrant batch is retried before it is dead-lettered.
	// Default 3.
	MaxSendRetries int
}

// WithDefaults returns a copy of c with zero fields set to defaults.
func (c Config) WithDefaults() Config {
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 5
	}
	if c.MaxRestarts == 0 {
		c.MaxRestarts = 3
	}
	if c.Backoff <= 0 {
		c.Backoff = time.Millisecond
	}
	if c.MaxSendRetries <= 0 {
		c.MaxSendRetries = 3
	}
	return c
}

// FailureKind classifies a deme failure.
type FailureKind int

const (
	// FailurePanic is a recovered panic in the deme's step (fitness
	// function, operator, or injected fault).
	FailurePanic FailureKind = iota
	// FailureTimeout is a missed heartbeat: the step did not complete
	// within Config.Heartbeat.
	FailureTimeout
)

// String implements fmt.Stringer.
func (k FailureKind) String() string {
	if k == FailureTimeout {
		return "timeout"
	}
	return "panic"
}

// DemeFailure is the typed event a deme failure is converted into
// (instead of process death): what failed, when, why, and whether the
// supervisor restarted the deme or declared it dead.
type DemeFailure struct {
	// Deme is the failed deme.
	Deme int
	// Gen is the island generation whose step failed.
	Gen int
	// Kind is the failure class.
	Kind FailureKind
	// Err is the recovered panic value (nil for timeouts).
	Err any
	// Restarted reports whether the deme was restarted from its
	// checkpoint; false means the restart budget was exhausted and the
	// deme is dead.
	Restarted bool
}

// StepStatus is the outcome class of one supervised step attempt.
type StepStatus int

const (
	// StepOK: the step completed.
	StepOK StepStatus = iota
	// StepPanicked: the step panicked and was recovered.
	StepPanicked
	// StepTimedOut: the step missed the heartbeat deadline and was
	// abandoned (its goroutine is left to finish in the background; the
	// engine it was mutating must never be used again).
	StepTimedOut
)

// StepOutcome reports one supervised step attempt.
type StepOutcome struct {
	// Status is the outcome class.
	Status StepStatus
	// Err is the recovered panic value when Status is StepPanicked.
	Err any
}

// populationSetter is the restart half of checkpointing, implemented by
// the ga engines (see ga.Generational.SetPopulation).
type populationSetter interface {
	SetPopulation(*core.Population)
}

// demeState is the supervisor's bookkeeping for one deme, guarded by
// Supervisor.mu.
type demeState struct {
	// src is the RNG stream of the deme's *current* engine (replaced on
	// restart); checkpoints capture its state.
	src *rng.Source
	// cp is the last checkpoint.
	cp *persist.Checkpoint
	// restarts is the consumed restart budget.
	restarts int
	// dead marks an abandoned deme.
	dead bool
}

// Supervisor runs the demes of one island run under supervision. It is
// created per run (it accumulates counters and consumes the fault plan)
// and is safe for concurrent use by the deme worker goroutines.
type Supervisor struct {
	cfg       Config
	plan      *FaultPlan
	router    *Router
	newEngine func(deme int, r *rng.Source) ga.Engine

	mu         sync.Mutex
	restartSrc *rng.Source
	demes      []demeState
	failures   []DemeFailure

	restarts     atomic.Int64
	panics       atomic.Int64
	timeouts     atomic.Int64
	deadLettered atomic.Int64
	// retiredEvals accumulates the checkpointed evaluation counts of
	// replaced engines, so run totals survive engine swaps. Evaluations
	// a deme performed after its last checkpoint are lost work and are
	// deliberately not counted (counting them exactly would race the
	// abandoned goroutine still running the hung step).
	retiredEvals atomic.Int64
}

// New creates a supervisor for one run: cfg tuned with defaults, an
// optional fault plan, the base topology to heal, the deme engine
// factory used for restarts, and a private source from which every
// restarted deme's fresh stream is split.
func New(cfg Config, plan *FaultPlan, base topology.Topology, newEngine func(int, *rng.Source) ga.Engine, restartSrc *rng.Source) *Supervisor {
	return &Supervisor{
		cfg:        cfg.WithDefaults(),
		plan:       plan,
		router:     NewRouter(base),
		newEngine:  newEngine,
		restartSrc: restartSrc,
		demes:      make([]demeState, base.Size()),
	}
}

// Config returns the effective (defaulted) configuration.
func (s *Supervisor) Config() Config { return s.cfg }

// Router returns the failure-aware topology view.
func (s *Supervisor) Router() *Router { return s.router }

// Attach registers deme i's engine stream so checkpoints can capture it.
// Must be called once per deme before the run starts.
func (s *Supervisor) Attach(i int, src *rng.Source) {
	s.mu.Lock()
	s.demes[i].src = src
	s.mu.Unlock()
}

// Checkpoint snapshots deme i: population, current stream state, and
// caller bookkeeping. The population is serialised immediately, so later
// mutations by the engine never leak into the checkpoint.
func (s *Supervisor) Checkpoint(i int, pop *core.Population, gen int, evals int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp, err := persist.Capture(pop, s.demes[i].src, gen, evals)
	if err != nil {
		return err
	}
	s.demes[i].cp = cp
	return nil
}

// CheckpointDue reports whether generation gen is a checkpoint
// generation.
func (s *Supervisor) CheckpointDue(gen int) bool {
	return gen%s.cfg.CheckpointEvery == 0
}

// RunStep executes one supervised step of deme i at generation gen on e:
// scripted faults are injected, panics recovered, and — when a heartbeat
// deadline is configured — the step is abandoned if it overruns. After a
// StepTimedOut outcome the engine e must be discarded: the abandoned
// goroutine may still be mutating it.
func (s *Supervisor) RunStep(i, gen int, e ga.Engine) StepOutcome {
	step := func() (out StepOutcome) {
		defer func() {
			if r := recover(); r != nil {
				out = StepOutcome{Status: StepPanicked, Err: r}
			}
		}()
		s.plan.apply(i, gen)
		e.Step()
		return StepOutcome{Status: StepOK}
	}
	if s.cfg.Heartbeat <= 0 {
		return step()
	}
	ch := make(chan StepOutcome, 1) // buffered: an abandoned step never blocks
	// The one deliberately unsupervised goroutine in the library: a hung
	// step cannot be cancelled (Engine.Step takes no context), so the
	// supervisor abandons it on heartbeat timeout and the restart budget
	// bounds how many can accumulate. The send is provably non-blocking:
	// capacity-1 buffer, exactly one send per goroutine.
	//pgalint:ignore goroleak,blockingsend heartbeat-abandoned step; single send into cap-1 buffer
	go func() { ch <- step() }()
	timer := time.NewTimer(s.cfg.Heartbeat)
	defer timer.Stop()
	select {
	case out := <-ch:
		return out
	case <-timer.C:
		return StepOutcome{Status: StepTimedOut}
	}
}

// Restart handles a failed step of deme i at generation gen: it records
// the typed DemeFailure, and either restarts the deme — exponential
// backoff, a fresh engine on a fresh split stream, population restored
// from the last checkpoint — or, when the restart budget is exhausted,
// declares it dead and heals the topology around it.
//
// On restart it returns the replacement engine and the checkpoint's
// generation (the deme resumes after it). On death it returns
// (nil, pop, false) where pop is the last checkpointed population,
// frozen for final reporting.
func (s *Supervisor) Restart(i, gen int, kind FailureKind, cause any) (ga.Engine, *core.Population, bool) {
	switch kind {
	case FailureTimeout:
		s.timeouts.Add(1)
	default:
		s.panics.Add(1)
	}

	s.mu.Lock()
	d := &s.demes[i]
	if d.dead {
		// Already declared dead (defensive; callers stop stepping dead demes).
		s.mu.Unlock()
		return nil, nil, false
	}
	if d.cp == nil || d.restarts >= s.cfg.MaxRestarts {
		d.dead = true
		s.failures = append(s.failures, DemeFailure{Deme: i, Gen: gen, Kind: kind, Err: cause, Restarted: false})
		var frozen *core.Population
		if d.cp != nil {
			frozen, _ = d.cp.RestorePopulation()
			s.retiredEvals.Add(d.cp.Evaluations)
		}
		s.mu.Unlock()
		s.router.MarkDead(i)
		return nil, frozen, false
	}
	d.restarts++
	attempt := d.restarts
	cp := d.cp
	src := s.restartSrc.Split()
	d.src = src
	s.retiredEvals.Add(cp.Evaluations)
	s.failures = append(s.failures, DemeFailure{Deme: i, Gen: gen, Kind: kind, Err: cause, Restarted: true})
	s.mu.Unlock()
	s.restarts.Add(1)

	// Exponential backoff: Backoff × 2^(attempt-1), capped at 64×.
	shift := attempt - 1
	if shift > 6 {
		shift = 6
	}
	time.Sleep(s.cfg.Backoff << uint(shift))

	e := s.newEngine(i, src)
	pop, err := cp.RestorePopulation()
	if err == nil {
		if ps, ok := e.(populationSetter); ok {
			ps.SetPopulation(pop)
		}
		// Engines without SetPopulation (none in-tree today) restart
		// cold on their fresh random population.
	}
	return e, nil, true
}

// ResumeGen returns the generation of deme i's last checkpoint — where a
// restarted deme resumes its private generation counter (async mode; the
// sync barrier instead retries the current global generation).
func (s *Supervisor) ResumeGen(i int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.demes[i].cp == nil {
		return 0
	}
	return s.demes[i].cp.Generation
}

// DeadLetter counts n undeliverable migrant batches.
func (s *Supervisor) DeadLetter(n int64) { s.deadLettered.Add(n) }

// Restarts returns the number of deme restarts performed.
func (s *Supervisor) Restarts() int64 { return s.restarts.Load() }

// PanicsRecovered returns the number of recovered step panics.
func (s *Supervisor) PanicsRecovered() int64 { return s.panics.Load() }

// HeartbeatTimeouts returns the number of missed heartbeat deadlines.
func (s *Supervisor) HeartbeatTimeouts() int64 { return s.timeouts.Load() }

// DeadLettered returns the number of dead-lettered migrant batches.
func (s *Supervisor) DeadLettered() int64 { return s.deadLettered.Load() }

// RetiredEvaluations returns the checkpointed evaluation counts of all
// replaced engines (add to the live engines' totals for a run total).
func (s *Supervisor) RetiredEvaluations() int64 { return s.retiredEvals.Load() }

// Failures returns the recorded failure events in occurrence order.
func (s *Supervisor) Failures() []DemeFailure {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]DemeFailure(nil), s.failures...)
}
