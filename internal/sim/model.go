package sim

import (
	"fmt"

	"pga/internal/core"
	"pga/internal/engine"
	"pga/internal/ga"
	"pga/internal/genome"
	"pga/internal/operators"
	"pga/internal/rng"
)

// genes extracts the real gene slice of the unit-hypercube genomes used by
// this package's problems.
func genes(g core.Genome) []float64 { return g.(*genome.RealVector).Genes }

// randomUnitVector returns a RealVector on [0,1]^n.
func randomUnitVector(n int, r *rng.Source) core.Genome {
	return genome.RandomRealVector(n, 0, 1, r)
}

// Scenario enumerates the seven SIM configurations compared in the
// original paper: they vary the number of sub-EAs, whether each sub-EA
// specialises on one objective or optimises all of them, and the
// communication topology between the sub-EAs.
type Scenario int

const (
	// S1 is the non-parallel baseline: one island optimising the weighted
	// sum of all objectives.
	S1 Scenario = iota + 1
	// S2 is k generalist islands with no communication.
	S2
	// S3 is k generalist islands on a migration ring.
	S3
	// S4 is one specialist island per objective, no communication.
	S4
	// S5 is one specialist island per objective on a migration ring.
	S5
	// S6 is the specialists plus one generalist hub (star topology).
	S6
	// S7 is one specialist per objective, fully connected.
	S7
)

// String implements fmt.Stringer.
func (s Scenario) String() string {
	switch s {
	case S1:
		return "S1 single generalist"
	case S2:
		return "S2 generalists, isolated"
	case S3:
		return "S3 generalists, ring"
	case S4:
		return "S4 specialists, isolated"
	case S5:
		return "S5 specialists, ring"
	case S6:
		return "S6 specialists + hub"
	case S7:
		return "S7 specialists, complete"
	}
	return fmt.Sprintf("S?%d", int(s))
}

// scalarProblem adapts a MultiObjective to core.Problem through an
// objective-weight vector, feeding every evaluation into a shared archive.
// objs is the island's objective buffer, which Archive.Add copies from.
type scalarProblem struct {
	mo      MultiObjective
	weights []float64
	archive *Archive
	evals   *int64
	objs    []float64
}

func (p *scalarProblem) Name() string                        { return p.mo.Name() }
func (p *scalarProblem) Direction() core.Direction           { return core.Minimize }
func (p *scalarProblem) NewGenome(r *rng.Source) core.Genome { return p.mo.NewGenome(r) }

// Evaluate is an archive-feeding adapter, stateful on purpose: the SIM
// scenarios run demes sequentially, and Archive.Add is the documented
// side channel for Pareto collection.
func (p *scalarProblem) Evaluate(g core.Genome) float64 {
	objs := p.objs
	p.mo.Objectives(g, objs)
	*p.evals++
	p.archive.Add(g, objs)
	s := 0.0
	for i, o := range objs {
		s += p.weights[i] * o
	}
	return s
}

// Config describes a SIM run.
type Config struct {
	// Problem is the multi-objective problem (required).
	Problem MultiObjective
	// Scenario selects one of the seven configurations.
	Scenario Scenario
	// DemeSize is the population per island; default 40.
	DemeSize int
	// MigrationInterval between exchanges; default 5.
	MigrationInterval int
	// ArchiveCap bounds the Pareto archive; default 100.
	ArchiveCap int
	// HVRef is the hypervolume reference point for bi-objective problems.
	// The default (11, 11) counts broad coverage; a tight reference such
	// as (1.1, 1.1) counts only near-front points and discriminates the
	// scenarios much more sharply.
	HVRef [2]float64
	// Seed seeds the master stream.
	Seed uint64
}

// Result summarises a SIM run. The embedded core.RunStats holds the
// accounting common to every runtime; BestFitness is the best
// scalarised fitness across sub-EAs, each member scored under its own
// island's objective weights (the archive, not BestFitness, is the
// multi-objective quality measure — see DESIGN §9), and one evaluation
// is one Objectives() call (scalarisation is free).
type Result struct {
	core.RunStats
	// Scenario that produced the result.
	Scenario Scenario
	// Archive is the final non-dominated set.
	Archive *Archive
	// Hypervolume is the 2-D hypervolume of the archive (bi-objective
	// problems; 0 otherwise), reference point (1.1, 1.1)·scale.
	Hypervolume float64
	// Islands is the number of sub-EAs used.
	Islands int
}

// islandSpec is one sub-EA's configuration.
type islandSpec struct {
	weights   []float64
	neighbors []int
}

// buildScenario returns the islands and their links for the scenario.
func buildScenario(s Scenario, nObj int) []islandSpec {
	uniform := make([]float64, nObj)
	for i := range uniform {
		uniform[i] = 1 / float64(nObj)
	}
	oneHot := func(k int) []float64 {
		w := make([]float64, nObj)
		w[k] = 1
		return w
	}
	ring := func(n int) [][]int {
		out := make([][]int, n)
		for i := range out {
			out[i] = []int{(i + 1) % n}
		}
		return out
	}
	none := func(n int) [][]int { return make([][]int, n) }
	complete := func(n int) [][]int {
		out := make([][]int, n)
		for i := range out {
			for j := 0; j < n; j++ {
				if j != i {
					out[i] = append(out[i], j)
				}
			}
		}
		return out
	}

	mk := func(weights [][]float64, links [][]int) []islandSpec {
		specs := make([]islandSpec, len(weights))
		for i := range specs {
			specs[i] = islandSpec{weights: weights[i], neighbors: links[i]}
		}
		return specs
	}

	switch s {
	case S1:
		return mk([][]float64{uniform}, none(1))
	case S2, S3:
		ws := make([][]float64, nObj) // as many generalists as objectives, for parity
		for i := range ws {
			ws[i] = uniform
		}
		if s == S2 {
			return mk(ws, none(nObj))
		}
		return mk(ws, ring(nObj))
	case S4, S5, S7:
		ws := make([][]float64, nObj)
		for i := range ws {
			ws[i] = oneHot(i)
		}
		switch s {
		case S4:
			return mk(ws, none(nObj))
		case S5:
			return mk(ws, ring(nObj))
		default:
			return mk(ws, complete(nObj))
		}
	case S6:
		ws := make([][]float64, 0, nObj+1)
		ws = append(ws, uniform) // hub generalist = island 0
		for i := 0; i < nObj; i++ {
			ws = append(ws, oneHot(i))
		}
		links := make([][]int, nObj+1)
		for i := 1; i <= nObj; i++ {
			links[0] = append(links[0], i)
			links[i] = []int{0}
		}
		return mk(ws, links)
	}
	panic(fmt.Sprintf("sim: unknown scenario %d", int(s)))
}

// Run executes the scenario until stop fires and returns its result. The
// run is fully deterministic for a given Config and stop; ctl is the
// caller's run control.
func Run(cfg Config, stop core.StopCondition, ctl engine.Control) *Result {
	if cfg.Problem == nil {
		panic("sim: Config.Problem is required")
	}
	if cfg.DemeSize == 0 {
		cfg.DemeSize = 40
	}
	if cfg.MigrationInterval == 0 {
		cfg.MigrationInterval = 5
	}
	if cfg.ArchiveCap == 0 {
		cfg.ArchiveCap = 100
	}
	if cfg.HVRef == [2]float64{} {
		cfg.HVRef = [2]float64{11, 11}
	}

	st := newScenario(cfg)
	res := &Result{
		Scenario: cfg.Scenario,
		Archive:  st.archive,
		Islands:  len(st.specs),
	}
	engine.Loop(st, engine.Options{Stop: stop}.With(ctl), &res.RunStats)
	if archive := st.archive; cfg.Problem.NObjectives() == 2 {
		pts := make([][]float64, 0, archive.Len())
		for _, it := range archive.Items() {
			pts = append(pts, it.Objectives)
		}
		res.Hypervolume = Hypervolume2D(pts, cfg.HVRef)
	}
	return res
}

// newScenario builds the sub-EAs of cfg (defaults applied) around one
// shared archive.
func newScenario(cfg Config) *scenarioStepper {
	nObj := cfg.Problem.NObjectives()
	st := &scenarioStepper{
		specs:    buildScenario(cfg.Scenario, nObj),
		archive:  NewArchive(cfg.ArchiveCap),
		interval: cfg.MigrationInterval,
	}
	master := rng.New(cfg.Seed)
	st.migRNG = master.Split()
	st.engines = make([]ga.Engine, len(st.specs))
	st.scalars = make([]*scalarProblem, len(st.specs))
	for i, spec := range st.specs {
		st.scalars[i] = &scalarProblem{mo: cfg.Problem, weights: spec.weights, archive: st.archive, evals: &st.evals, objs: make([]float64, nObj)}
		st.engines[i] = ga.NewGenerational(ga.Config{
			Problem:   st.scalars[i],
			PopSize:   cfg.DemeSize,
			Selector:  operators.Tournament{K: 2},
			Crossover: operators.SBX{},
			Mutator:   operators.Polynomial{},
			RNG:       master.Split(),
		})
	}
	return st
}

// scenarioStepper is the SIM runtime's engine.Stepper: one generation
// steps every sub-EA, then migrates on schedule. Best() is the best
// scalarised fitness across islands, each member scored under its own
// island's weights.
type scenarioStepper struct {
	engines  []ga.Engine
	scalars  []*scalarProblem
	specs    []islandSpec
	archive  *Archive
	migRNG   *rng.Source
	evals    int64
	interval int

	// The migration epoch's storage, built on the first epoch and reused:
	// the outbox's copies of the emigrants, the two SBX children and the
	// crossover's scratch.
	outbox  []migrant
	c1, c2  core.Genome
	scratch operators.Scratch
}

// migrant is one outbox entry: a copy of an island's best, bound for to.
type migrant struct {
	to int
	g  core.Genome
}

// Step implements engine.Stepper.
func (s *scenarioStepper) Step(gen int) engine.StepInfo {
	for _, e := range s.engines {
		e.Step()
	}
	if gen%s.interval == 0 {
		s.migrate()
	}
	return engine.StepInfo{}
}

// Best implements engine.Stepper.
func (s *scenarioStepper) Best() (*core.Individual, float64) {
	bestFit := core.Minimize.Worst()
	var best *core.Individual
	for _, e := range s.engines {
		pop := e.Population()
		if b := pop.Best(core.Minimize); b >= 0 && core.Minimize.Better(pop.Members[b].Fitness, bestFit) {
			bestFit = pop.Members[b].Fitness
			best = pop.Members[b]
		}
	}
	return best, bestFit
}

// Evaluations implements engine.Stepper.
func (s *scenarioStepper) Evaluations() int64 { return s.evals }

// Direction implements engine.Stepper.
func (s *scenarioStepper) Direction() core.Direction { return core.Minimize }

// migrate sends each island's best to its neighbours; the migrant is
// re-evaluated under the receiver's objective weights (the defining SIM
// mechanic: a solution good for objective i seeds the search for
// objective j). Every emigrant is copied out before any island takes one
// in, and what an island takes in is copied into the members it
// displaces, so a warm epoch allocates nothing.
func (s *scenarioStepper) migrate() {
	dir := core.Minimize
	n := 0
	for i, e := range s.engines {
		if len(s.specs[i].neighbors) == 0 {
			continue
		}
		pop := e.Population()
		if b := pop.Best(dir); b >= 0 {
			for _, nbr := range s.specs[i].neighbors {
				if n == len(s.outbox) {
					s.outbox = append(s.outbox, migrant{})
				}
				m := &s.outbox[n]
				m.to, m.g = nbr, core.CopyGenome(m.g, pop.Members[b].Genome)
				n++
			}
		}
	}
	sbx := operators.SBX{}
	for _, m := range s.outbox[:n] {
		pop := s.engines[m.to].Population()
		// A raw cross-specialist migrant scores poorly on the receiver's
		// objective and is discarded by the next generational step before
		// selection can exploit it. Integrate by recombination instead:
		// cross the immigrant with the receiver's best, so its genes enter
		// the gene pool in hybrids that can compete locally — the
		// cross-specialist seeding that makes SIM cover the front.
		b := pop.Best(dir)
		if b < 0 {
			continue
		}
		best := pop.Members[b].Genome
		s.c1, s.c2 = core.CopyGenome(s.c1, m.g), core.CopyGenome(s.c2, best)
		sbx.CrossInto(m.g, best, s.c1, s.c2, s.migRNG, &s.scratch)
		for _, g := range [...]core.Genome{m.g, s.c1, s.c2} {
			f := s.scalars[m.to].Evaluate(g)
			if w := pop.Worst(dir); w >= 0 {
				ind := pop.Members[w]
				ind.Genome = core.CopyGenome(ind.Genome, g)
				ind.Fitness, ind.Evaluated = f, true
			}
		}
	}
}
