package spec

import (
	"fmt"

	"pga/internal/engine"
	"pga/internal/ga"
	"pga/internal/hga"
	"pga/internal/island"
	"pga/internal/masterslave"
	"pga/internal/p2p"
	"pga/internal/rng"
	"pga/internal/sim"
)

// Model strings: the nine spec names covering the eight runtimes (the
// island runtime serves both plain and supervised islands; sequential
// baselines count as one family with two names).
const (
	ModelGenerational = "generational"
	ModelSteadyState  = "steadystate"
	ModelParallel     = "parallel"
	ModelMasterSlave  = "masterslave"
	ModelCellular     = "cellular"
	ModelIslands      = "islands"
	ModelP2P          = "p2p"
	ModelHGA          = "hga"
	ModelSIM          = "sim"
)

// budgetKind is which stop conditions a model's runtime honours.
type budgetKind int

const (
	budgetFull        budgetKind = iota // every BudgetSpec field but cost
	budgetGenerations                   // budget.generations only
	budgetCost                          // budget.cost only
)

// model is everything the package knows about one RunSpec.Model value;
// resolve, Build and Run are walks over this table and never compare a
// model name themselves.
type model struct {
	name string
	// section is the JSON key of the model's own section ("" if it has
	// none) and has reports whether a spec sets it; a section set under
	// any other model is an error.
	section string
	has     func(*RunSpec) bool
	// family is the engine family the Engine section configures. With
	// demes set, engine.type picks it instead; nil without demes means
	// the model takes no Engine section at all.
	family *family
	demes  bool
	// problem resolves problem.* into the plan.
	problem func(*Plan, *Error)
	budget  budgetKind
	// gens overrides the generation cap of an empty budget.
	gens int
	// check validates the model's section into the plan (nil: nothing
	// beyond the shared sections).
	check func(*Plan, *Error)
	// build constructs the runtime handle(s) from a plan that resolved
	// without error; run drives them under the caller's run control —
	// handed to the runtime as it came — and adds the model's report
	// fields.
	build func(*Plan, *Built)
	run   func(*Built, engine.Control, *Report)
}

var models = []*model{
	{name: ModelGenerational, family: famGenerational, problem: (*Plan).registryProblem,
		build: buildEngine, run: runEngine},
	{name: ModelSteadyState, family: famSteadyState, problem: (*Plan).registryProblem,
		build: buildEngine, run: runEngine},
	{name: ModelParallel, family: famParallel, problem: (*Plan).registryProblem,
		build: buildEngine, run: runEngine},
	{name: ModelMasterSlave, section: "farm", has: func(s *RunSpec) bool { return s.Farm != nil },
		family: famGenerational, problem: (*Plan).registryProblem,
		check: (*Plan).farm,
		build: func(p *Plan, b *Built) {
			b.Farm = masterslave.NewFarm(p.spec.Seed, masterslave.Uniform(p.workers))
			cfg := p.gaConfig(rng.New(p.spec.Seed))
			cfg.Evaluator = b.Farm
			b.Engine = ga.NewGenerational(cfg)
		},
		run: runEngine},
	{name: ModelCellular, family: famCellular, problem: (*Plan).registryProblem,
		build: buildEngine, run: runEngine},
	{name: ModelIslands, section: ModelIslands, has: func(s *RunSpec) bool { return s.Islands != nil },
		demes: true, problem: (*Plan).registryProblem,
		check: (*Plan).islands,
		build: func(p *Plan, b *Built) { b.Islands = island.New(p.IslandConfig()) },
		run: func(b *Built, ctl engine.Control, rep *Report) {
			var res *island.Result
			if b.plan.parallel {
				res = b.Islands.RunParallel(b.plan.maxGens, ctl)
			} else {
				res = b.Islands.RunSequential(b.Stop, ctl)
			}
			rep.fill(&res.RunStats)
			rep.Migrations, rep.Restarts, rep.DeadDemes = res.Migrations, res.Restarts, res.DeadDemes
		}},
	{name: ModelP2P, section: ModelP2P, has: func(s *RunSpec) bool { return s.P2P != nil },
		demes: true, problem: (*Plan).registryProblem, budget: budgetGenerations,
		check: (*Plan).p2p,
		build: func(p *Plan, b *Built) {
			cfg := p.overlay
			cfg.Problem, cfg.NewEngine, cfg.Seed = p.prob, p.demeEngine, p.spec.Seed
			b.P2P = p2p.New(cfg)
		},
		run: func(b *Built, ctl engine.Control, rep *Report) {
			res := b.P2P.Run(b.plan.maxGens, ctl)
			rep.fill(&res.RunStats)
			rep.Departures, rep.Joins, rep.AliveAtEnd = res.Departures, res.Joins, res.AliveAtEnd
		}},
	{name: ModelHGA, section: ModelHGA, has: func(s *RunSpec) bool { return s.HGA != nil },
		family: famHGA, problem: (*Plan).realProblem, budget: budgetCost,
		check: (*Plan).hga,
		build: func(p *Plan, b *Built) {
			cfg := p.hierarchy
			cfg.Problem, cfg.DemeSize, cfg.Seed = p.fidelity, p.spec.Engine.Pop, p.spec.Seed
			cfg.Selector, cfg.Crossover, cfg.Mutator = p.sel, p.xover, p.mut
			b.HGA = hga.New(cfg)
		},
		run: func(b *Built, ctl engine.Control, rep *Report) {
			res := b.HGA.Run(b.plan.cost, ctl)
			rep.fill(&res.RunStats)
			rep.Cost, rep.CostAtSolve = res.Cost, res.CostAtSolve
		}},
	{name: ModelSIM, section: ModelSIM, has: func(s *RunSpec) bool { return s.SIM != nil },
		problem: (*Plan).simProblem, budget: budgetGenerations, gens: defaultSIMGenerations,
		check: (*Plan).sim,
		build: func(p *Plan, b *Built) {
			cfg := p.scenario
			cfg.Generations, cfg.Seed = p.maxGens, p.spec.Seed
			b.SIMConfig = &cfg
		},
		run: func(b *Built, ctl engine.Control, rep *Report) {
			res := sim.Run(*b.SIMConfig, ctl)
			rep.fill(&res.RunStats)
			rep.Hypervolume, rep.ParetoSize, rep.Islands = res.Hypervolume, res.Archive.Len(), res.Islands
		}},
}

// Models lists the valid RunSpec.Model strings in presentation order.
func Models() []string {
	out := make([]string, len(models))
	for i, m := range models {
		out[i] = m.name
	}
	return out
}

// String names the model the way the budget messages do.
func (m *model) String() string { return fmt.Sprintf("model %q", m.name) }

// buildEngine constructs a panmictic model's one engine on the run seed.
func buildEngine(p *Plan, b *Built) { b.Engine = p.family.engine(p, rng.New(p.spec.Seed)) }

// runEngine drives b.Engine — read here, at run time, so a caller may
// wrap the engine between Build and Run.
func runEngine(b *Built, ctl engine.Control, rep *Report) {
	res := ga.Run(b.Engine, ga.RunOptions{Stop: b.Stop, Control: ctl})
	rep.fill(&res.RunStats)
	rep.CacheHits, rep.CacheMisses = res.CacheHits, res.CacheMisses
}
