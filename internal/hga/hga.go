// Package hga implements the Hierarchical Genetic Algorithm of Sefrioui &
// Périaux (2000), reviewed in §2 of the survey: a multi-layered topology
// of demes where each layer evaluates with a different fitness model —
// cheap, imprecise models in the lower layers explore broadly, while the
// precise, expensive model at the top refines. Individuals are promoted
// upward when good and diversity flows back down.
//
// The survey's claim to reproduce (E8): the mixed-model hierarchy reaches
// the same solution quality as a precise-model-only configuration at about
// one third of the evaluation cost.
package hga

import (
	"fmt"
	"math"
	"time"

	"pga/internal/core"
	"pga/internal/engine"
	"pga/internal/ga"
	"pga/internal/genome"
	"pga/internal/operators"
	"pga/internal/problems"
	"pga/internal/rng"
)

// MultiFidelity is a problem that can be evaluated at several fidelity
// levels. Level 0 is the precise (expensive) model; higher levels are
// cheaper and less accurate.
type MultiFidelity interface {
	core.Problem // Evaluate is the level-0 (precise) model
	// Levels returns the number of fidelity levels.
	Levels() int
	// EvaluateAt evaluates g with the model at the given level. buf is
	// caller-owned scratch the model may grow and reuse for a level's
	// transformed input, so a caller that keeps its buffer evaluates
	// without allocating; a nil buf gets a buffer for this call alone.
	EvaluateAt(level int, g core.Genome, buf *[]float64) float64
	// CostAt returns the relative cost of one evaluation at the level
	// (level 0 = 1.0 by convention).
	CostAt(level int) float64
}

// QuantizedFidelity wraps a real-valued problem into a multi-fidelity one
// by evaluating on a coarsened input grid: level k snaps every coordinate
// to a grid of 2^(bits-2k) points, which is deterministic, strongly
// correlated with the precise model, and progressively blurs fine
// structure — the behaviour of the simplified aerodynamic models in the
// original HGA work (substitution documented in DESIGN.md). It holds no
// evaluation state: a coarse level snaps into the caller's buffer, so one
// instance serves every deme.
type QuantizedFidelity struct {
	// Inner is the precise model.
	Inner *problems.RealFunc
	// LevelCosts[k] is the relative cost of level k; LevelCosts[0] must
	// be 1. The default is {1, 0.25, 0.0625}.
	LevelCosts []float64
	// BaseBits is the grid resolution exponent at level 0; default 20.
	BaseBits int
}

// NewQuantized returns a 3-level quantized fidelity hierarchy over inner.
func NewQuantized(inner *problems.RealFunc) *QuantizedFidelity {
	return &QuantizedFidelity{Inner: inner, LevelCosts: []float64{1, 0.25, 0.0625}, BaseBits: 20}
}

// Name implements core.Problem.
func (q *QuantizedFidelity) Name() string { return q.Inner.Name() + "-mf" }

// Direction implements core.Problem.
func (q *QuantizedFidelity) Direction() core.Direction { return q.Inner.Direction() }

// NewGenome implements core.Problem.
func (q *QuantizedFidelity) NewGenome(r *rng.Source) core.Genome { return q.Inner.NewGenome(r) }

// Evaluate implements core.Problem (precise model).
func (q *QuantizedFidelity) Evaluate(g core.Genome) float64 { return q.EvaluateAt(0, g, nil) }

// Optimum implements core.TargetAware.
func (q *QuantizedFidelity) Optimum() float64 { return q.Inner.Optimum() }

// Solved implements core.TargetAware.
func (q *QuantizedFidelity) Solved(f float64) bool { return q.Inner.Solved(f) }

// Levels implements MultiFidelity.
func (q *QuantizedFidelity) Levels() int { return len(q.LevelCosts) }

// CostAt implements MultiFidelity.
func (q *QuantizedFidelity) CostAt(level int) float64 { return q.LevelCosts[level] }

// EvaluateAt implements MultiFidelity: level 0 reads the genes as they
// are, a coarser level snaps them into *buf.
func (q *QuantizedFidelity) EvaluateAt(level int, g core.Genome, buf *[]float64) float64 {
	v := g.(*genome.RealVector)
	if level == 0 {
		return q.Inner.F(v.Genes)
	}
	bits := q.baseBits() - 6*level
	if bits < 2 {
		bits = 2
	}
	steps := math.Exp2(float64(bits))
	if buf == nil {
		buf = new([]float64)
	}
	if cap(*buf) < len(v.Genes) {
		*buf = make([]float64, len(v.Genes))
	}
	x := (*buf)[:len(v.Genes)]
	for i, gv := range v.Genes {
		lo, hi := v.Lo[i], v.Hi[i]
		t := (gv - lo) / (hi - lo)
		t = math.Round(t*steps) / steps
		x[i] = lo + t*(hi-lo)
	}
	return q.Inner.F(x)
}

func (q *QuantizedFidelity) baseBits() int {
	if q.BaseBits <= 0 {
		return 20
	}
	return q.BaseBits
}

// Config describes an HGA run.
type Config struct {
	// Problem is the multi-fidelity problem (required).
	Problem MultiFidelity
	// LayerSizes[l] is the number of demes on layer l; layer 0 is the
	// top (precise) layer. Default {1, 2, 4}.
	LayerSizes []int
	// LevelOf maps layer → fidelity level. By default layer l uses
	// level min(l, Levels-1). Setting all entries to 0 yields the
	// "precise-only" baseline of the E8 comparison.
	LevelOf []int
	// DemeSize is the population per deme; default 30.
	DemeSize int
	// MigrationInterval is the generations between promotions; default 5.
	MigrationInterval int
	// Selector, Crossover, Mutator configure every deme's engine.
	Selector  operators.Selector
	Crossover operators.Crossover
	Mutator   operators.Mutator
	// Seed seeds the master stream.
	Seed uint64
}

// layerProblem evaluates at a fixed fidelity level and accumulates cost.
// buf is the deme's own EvaluateAt scratch.
type layerProblem struct {
	mf    MultiFidelity
	level int
	cost  *float64
	evals *int64
	buf   []float64
}

func (p *layerProblem) Name() string              { return fmt.Sprintf("%s@L%d", p.mf.Name(), p.level) }
func (p *layerProblem) Direction() core.Direction { return p.mf.Direction() }
func (p *layerProblem) NewGenome(r *rng.Source) core.Genome {
	return p.mf.NewGenome(r)
}

// Evaluate is a cost/evals accounting adapter, stateful on purpose: each
// deme owns its layerProblem, and the pointees are aggregated only after
// Run joins every deme.
func (p *layerProblem) Evaluate(g core.Genome) float64 {
	*p.cost += p.mf.CostAt(p.level)
	*p.evals++
	return p.mf.EvaluateAt(p.level, g, &p.buf)
}

// Result summarises an HGA run. The embedded core.RunStats holds the
// accounting common to every runtime: BestFitness is the best
// precise-model fitness reached (the final best of every deme is
// re-scored with the precise model), and Evaluations counts raw
// evaluations at any fidelity level (Cost weighs them by level).
type Result struct {
	core.RunStats
	// Cost is the accumulated evaluation cost in precise-evaluation units.
	Cost float64
	// CostAtSolve is the accumulated cost when first solved.
	CostAtSolve float64
}

// Model is an instantiated hierarchy.
type Model struct {
	cfg     Config
	demes   []ga.Engine // flattened layer by layer
	layerOf []int
	parent  []int // deme index of parent (-1 for top layer)
	migRNG  *rng.Source
	cost    float64
	evals   int64
	dir     core.Direction
	// buf is the EvaluateAt scratch of promote and the final re-scoring,
	// which run between the demes' steps.
	buf []float64
}

// New builds the hierarchy.
func New(cfg Config) *Model {
	if cfg.Problem == nil {
		panic("hga: Config.Problem is required")
	}
	if cfg.LayerSizes == nil {
		cfg.LayerSizes = []int{1, 2, 4}
	}
	if cfg.DemeSize == 0 {
		cfg.DemeSize = 30
	}
	if cfg.MigrationInterval == 0 {
		cfg.MigrationInterval = 5
	}
	if cfg.Selector == nil {
		cfg.Selector = operators.Tournament{K: 2}
	}
	if cfg.LevelOf == nil {
		cfg.LevelOf = make([]int, len(cfg.LayerSizes))
		for l := range cfg.LevelOf {
			lev := l
			if lev >= cfg.Problem.Levels() {
				lev = cfg.Problem.Levels() - 1
			}
			cfg.LevelOf[l] = lev
		}
	}
	if len(cfg.LevelOf) != len(cfg.LayerSizes) {
		panic("hga: LevelOf and LayerSizes must have equal length")
	}

	m := &Model{cfg: cfg, dir: cfg.Problem.Direction()}
	master := rng.New(cfg.Seed)
	m.migRNG = master.Split()
	for l, size := range cfg.LayerSizes {
		for d := 0; d < size; d++ {
			lp := &layerProblem{mf: cfg.Problem, level: cfg.LevelOf[l], cost: &m.cost, evals: &m.evals}
			engine := ga.NewGenerational(ga.Config{
				Problem:   lp,
				PopSize:   cfg.DemeSize,
				Selector:  cfg.Selector,
				Crossover: cfg.Crossover,
				Mutator:   cfg.Mutator,
				RNG:       master.Split(),
			})
			m.layerOf = append(m.layerOf, l)
			m.demes = append(m.demes, engine)
		}
	}
	// Parent pointers: deme d on layer l>0 attaches to a parent on layer
	// l-1, children distributed evenly.
	m.parent = make([]int, len(m.demes))
	layerStart := make([]int, len(cfg.LayerSizes))
	for l := 1; l < len(cfg.LayerSizes); l++ {
		layerStart[l] = layerStart[l-1] + cfg.LayerSizes[l-1]
	}
	for i := range m.demes {
		l := m.layerOf[i]
		if l == 0 {
			m.parent[i] = -1
			continue
		}
		posInLayer := i - layerStart[l]
		parentLayerSize := cfg.LayerSizes[l-1]
		m.parent[i] = layerStart[l-1] + posInLayer*parentLayerSize/cfg.LayerSizes[l]
	}
	return m
}

// promote performs the hierarchical exchange: every non-top deme sends
// its best to its parent (accepted if better than the parent's worst,
// re-scored with the parent's model), and every parent sends a random
// individual down to each child to maintain diversity. A migrant is
// scored where it stands and copied into the member it displaces, so
// the exchange allocates nothing.
func (m *Model) promote() {
	for i, e := range m.demes {
		p := m.parent[i]
		if p < 0 {
			continue
		}
		pop := e.Population()
		if b := pop.Best(m.dir); b >= 0 {
			up := pop.Members[b]
			// Re-score with the parent's fidelity model.
			parentLevel := m.cfg.LevelOf[m.layerOf[p]]
			f := m.score(parentLevel, up.Genome)
			ppop := m.demes[p].Population()
			if w := ppop.Worst(m.dir); w >= 0 && m.dir.Better(f, ppop.Members[w].Fitness) {
				placeScored(ppop.Members[w], up, f)
			}
		}
		// Downward diversity: a random parent individual replaces a random
		// non-best child individual, re-scored with the child's model.
		ppop := m.demes[p].Population()
		down := ppop.Members[m.migRNG.Intn(ppop.Len())]
		f := m.score(m.cfg.LevelOf[m.layerOf[i]], down.Genome)
		if pop.Len() >= 2 {
			v := m.migRNG.Intn(pop.Len())
			if v == pop.Best(m.dir) {
				v = (v + 1) % pop.Len()
			}
			placeScored(pop.Members[v], down, f)
		}
	}
}

// score evaluates g at a fidelity level and charges the evaluation.
func (m *Model) score(level int, g core.Genome) float64 {
	m.cost += m.cfg.Problem.CostAt(level)
	m.evals++
	return m.cfg.Problem.EvaluateAt(level, g, &m.buf)
}

// placeScored copies src's genome into dst with fitness f.
func placeScored(dst, src *core.Individual, f float64) {
	dst.Genome = core.CopyGenome(dst.Genome, src.Genome)
	dst.Fitness, dst.Evaluated = f, true
}

// CostCap stops the hierarchy once its accumulated evaluation cost
// reaches Budget (the status snapshot has no cost notion, so the condition
// reads the model directly). It is the one budget only this runtime can
// meter; compose it with the others in a core.AnyOf.
type CostCap struct {
	Model  *Model
	Budget float64
}

// Done implements core.StopCondition.
func (c CostCap) Done(core.Status) bool { return c.Model.cost >= c.Budget }

// Reason implements core.StopCondition.
func (c CostCap) Reason() string { return "cost budget exhausted" }

// hierStepper is the hierarchy's engine.Stepper: one generation steps
// every deme, then promotes on schedule. Best() reports the top layer's
// best only when that layer evaluates with the precise model — quality on
// cheaper models is not comparable, so the loop tracks nothing otherwise
// and the final re-scoring fills the result in.
type hierStepper struct{ m *Model }

// Step implements engine.Stepper.
func (s *hierStepper) Step(gen int) engine.StepInfo {
	for _, e := range s.m.demes {
		e.Step()
	}
	if gen%s.m.cfg.MigrationInterval == 0 {
		s.m.promote()
	}
	return engine.StepInfo{}
}

// Best implements engine.Stepper.
func (s *hierStepper) Best() (*core.Individual, float64) {
	m := s.m
	if m.cfg.LevelOf[0] != 0 {
		return nil, m.dir.Worst()
	}
	pop := m.demes[0].Population()
	if b := pop.Best(m.dir); b >= 0 {
		return pop.Members[b], pop.Members[b].Fitness
	}
	return nil, m.dir.Worst()
}

// Evaluations implements engine.Stepper.
func (s *hierStepper) Evaluations() int64 { return s.m.evals }

// Direction implements engine.Stepper.
func (s *hierStepper) Direction() core.Direction { return s.m.dir }

// Run advances the hierarchy until stop fires (a CostCap on m, usually,
// among others); ctl is the caller's run control. Observers see the loop's
// stats: the precise re-scoring below happens after OnDone.
func (m *Model) Run(stop core.StopCondition, ctl engine.Control) *Result {
	start := time.Now()
	res := &Result{}
	ta, _ := core.Problem(m.cfg.Problem).(core.TargetAware)

	// The loop records the solve point before it fires OnGeneration, so
	// this hook reads the accumulated cost of the solving generation.
	atSolve := engine.Funcs{Generation: func(s core.Status) {
		if res.Solved && s.Generation == res.SolvedAtGen {
			res.CostAtSolve = m.cost
		}
	}}
	engine.Loop(&hierStepper{m: m}, engine.Options{
		Stop:      stop,
		Target:    ta,
		Observers: []engine.Observer{atSolve},
	}.With(ctl), &res.RunStats)

	// Final precise re-scoring of every deme's best.
	for _, e := range m.demes {
		pop := e.Population()
		if b := pop.Best(m.dir); b >= 0 {
			precise := m.cfg.Problem.EvaluateAt(0, pop.Members[b].Genome, &m.buf)
			if m.dir.Better(precise, res.BestFitness) {
				res.BestFitness = precise
				res.Best = pop.Members[b].Clone()
				res.Best.Fitness = precise
			}
		}
	}
	if ta != nil && !res.Solved && ta.Solved(res.BestFitness) {
		// The solve becomes known here, after the run's last generation.
		res.Solved = true
		res.SolvedAtGen = res.Generations
		res.SolvedAtEval = res.Evaluations
		res.CostAtSolve = m.cost
	}
	res.Cost = m.cost
	// Re-stamp so Elapsed includes the final re-scoring pass.
	res.Elapsed = time.Since(start)
	return res
}
