package island

import (
	"sync"

	"pga/internal/core"
	"pga/internal/engine"
	"pga/internal/supervise"
	"pga/internal/topology"
)

// barrierStepper is the engine.Stepper of the barriered discipline: every
// live deme completes generation g, then — when the policy is due — one
// central, lossless migration epoch runs over routes (exchangeOn), which
// also serves self-links (Ring(1) is 0→0) that an endpoint would refuse.
// The global best, evaluation totals and trace mean are read off the Model
// between generations.
//
// With a supervisor every step goes through RunStep and a failed deme
// retries the *current* generation after restoring its checkpoint (the
// barrier cannot roll the other demes back), so a transient fault costs
// one deme its progress since the last checkpoint and nobody else
// anything; a deme that exhausts its restart budget is retired and routed
// around (Gagné et al.'s transparency/robustness/adaptivity at the island
// level; survey §4).
type barrierStepper struct {
	m *Model
	// parallel steps each live deme in its own goroutine; otherwise the
	// demes advance in lockstep in the caller.
	parallel bool
	// sup is nil for an unsupervised run: demes step directly and nothing
	// below ever fails.
	sup *supervise.Supervisor
	// routes is the migration graph: Config.Topology, or the supervisor's
	// healed Router.
	routes topology.Topology
	// outcomes holds the supervised step outcome of each deme that failed
	// this generation, StepOK otherwise (nil when unsupervised, which makes
	// the recovery pass an empty loop).
	outcomes []supervise.StepOutcome
	// epochs counts completed migration epochs for dynamic rewiring.
	epochs int64
}

// alive reports whether deme i still takes part in the run.
func (s *barrierStepper) alive(i int) bool { return s.sup == nil || s.sup.Router().Alive(i) }

// stepDeme advances deme i through generation g.
func (s *barrierStepper) stepDeme(i, g int) {
	if s.sup == nil {
		s.m.engines[i].Step()
		return
	}
	s.outcomes[i] = s.sup.RunStep(i, g, s.m.engines[i])
}

// Step implements engine.Stepper.
func (s *barrierStepper) Step(g int) engine.StepInfo {
	m := s.m
	var info engine.StepInfo
	if s.parallel {
		var wg sync.WaitGroup
		for i := range m.engines {
			if !s.alive(i) {
				continue
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				s.stepDeme(i, g)
			}(i)
		}
		wg.Wait()
	} else {
		for i := range m.engines {
			if s.alive(i) {
				s.stepDeme(i, g)
			}
		}
	}

	// Serial recovery pass, deme order: restore-and-retry the failed
	// generation until it completes or the deme's budget runs out.
	for i, out := range s.outcomes {
		for out.Status != supervise.StepOK {
			eng, frozen, ok := s.sup.Restart(i, g, failureKind(out), out.Err)
			if !ok {
				m.retireDeme(i, frozen)
				break
			}
			info.Restarts++
			m.engines[i] = eng
			out = s.sup.RunStep(i, g, eng)
		}
		s.outcomes[i] = supervise.StepOutcome{}
	}

	if m.cfg.Policy.Due(g) {
		info.Migrations = m.exchangeOn(s.routes)
		s.epochs++
		if m.maybeRewire(s.epochs) && s.sup != nil {
			s.sup.Router().Refresh()
		}
	}
	return info
}

// Best implements engine.Stepper.
func (s *barrierStepper) Best() (*core.Individual, float64) { return s.m.globalBestRef() }

// Evaluations implements engine.Stepper.
func (s *barrierStepper) Evaluations() int64 { return s.m.totalEvaluations() }

// Direction implements engine.Stepper.
func (s *barrierStepper) Direction() core.Direction { return s.m.dir }

// MeanFitness implements engine.MeanReporter.
func (s *barrierStepper) MeanFitness() float64 { return s.m.meanFitness() }

// checkpoint is the supervised run's OnGeneration hook: on every
// checkpoint-due generation — including generation 0, before the first
// step — it snapshots every live deme.
func (s *barrierStepper) checkpoint(st core.Status) {
	if !s.sup.CheckpointDue(st.Generation) {
		return
	}
	for i, e := range s.m.engines {
		if s.alive(i) {
			_ = s.sup.Checkpoint(i, e.Population(), st.Generation, e.Evaluations())
		}
	}
}

// allDead stops a supervised barriered run when every deme has exhausted
// its restart budget.
type allDead struct{ router *supervise.Router }

// Done implements core.StopCondition.
func (a allDead) Done(core.Status) bool { return a.router.AliveCount() == 0 }

// Reason implements core.StopCondition.
func (a allDead) Reason() string { return "all demes dead" }

// runBarrier drives one barrierStepper under engine.Loop: lockstep or a
// goroutine per deme, supervised or not. A supervised run additionally
// stops when no deme is left and checkpoints through an OnGeneration hook
// of its own, which With places ahead of the caller's observers.
func (m *Model) runBarrier(parallel bool, sup *supervise.Supervisor, opts engine.Options, ctl engine.Control) *Result {
	st := &barrierStepper{m: m, parallel: parallel, sup: sup, routes: m.cfg.Topology}
	if sup != nil {
		st.routes = sup.Router()
		st.outcomes = make([]supervise.StepOutcome, len(m.engines))
		opts.Stop = core.AnyOf{opts.Stop, allDead{sup.Router()}}
		opts.Observers = []engine.Observer{engine.Funcs{Generation: st.checkpoint}}
	}
	opts.Target, _ = m.problem.(core.TargetAware)
	res := &Result{}
	totals := engine.Loop(st, opts.With(ctl), &res.RunStats)
	res.Migrations = totals.Migrations
	m.finish(res)
	return res
}
