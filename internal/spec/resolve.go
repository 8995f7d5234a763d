package spec

import (
	"cmp"
	"slices"
	"sort"
	"strconv"
	"time"

	"pga/internal/cellular"
	"pga/internal/core"
	"pga/internal/ga"
	"pga/internal/hga"
	"pga/internal/island"
	"pga/internal/migration"
	"pga/internal/operators"
	"pga/internal/p2p"
	"pga/internal/problems"
	"pga/internal/rng"
	"pga/internal/sim"
	"pga/internal/supervise"
	"pga/internal/topology"
)

// Plan is a resolved spec: validated, every vocabulary name looked up in
// its table, every spec-layer default applied and the problem
// constructed — each exactly once. Build only assembles runtime configs
// from these values; it looks nothing up and checks nothing, which is
// why a spec that validates cannot fail to build.
type Plan struct {
	spec   RunSpec
	model  *model
	family *family // nil for sim

	prob     core.Problem           // nil for sim
	fidelity *hga.QuantizedFidelity // hga: the multi-fidelity wrapper of prob

	sel          operators.Selector // nil: the engine's own default
	xover        operators.Crossover
	mut          operators.Mutator
	replaceWorst bool
	workers      int // engine.workers or farm.workers
	update       cellular.UpdatePolicy
	hood         cellular.Neighborhood

	budgetKind budgetKind // the model's, narrowed by the run mode
	maxGens    int
	cost       float64 // hga

	// islands: Topology, NewEngine, Resilience and Faults of the config
	// are stateful, so IslandConfig makes them afresh from the rest.
	deme       island.Config
	topo       func() topology.Topology
	parallel   bool
	resilience *supervise.Config
	faults     []supervise.Fault

	overlay   p2p.Config // p2p, less Problem/NewEngine/Seed
	hierarchy hga.Config // hga, less Problem/DemeSize/operators/Seed
	scenario  sim.Config // sim, less Generations/Seed
}

// Resolve validates s in one pass over the model and vocabulary tables
// and returns its plan, or every violation found as an *Error.
func Resolve(s RunSpec) (*Plan, error) {
	p, e := resolve(s)
	return p, asError(e)
}

// Validate checks the spec semantically and returns every violation at
// once as a structured *Error, or nil. It is the resolve pass with the
// plan dropped, so it never panics and accepts exactly what Build does.
func (s *RunSpec) Validate() *Error {
	_, e := resolve(*s)
	return e
}

// Build validates s and constructs its runtime. Engine-level zero
// values pass through to the runtime configs, so a spec-built runtime
// is draw-identical to the equivalent hand-wired construction.
func Build(s RunSpec) (*Built, error) {
	p, e := resolve(s)
	if e != nil {
		return nil, e
	}
	return p.Build(), nil
}

func resolve(s RunSpec) (*Plan, *Error) {
	e := &Error{}
	if s.Version < 0 || s.Version > 1 {
		e.add("version", "unsupported schema version %d (this library speaks version 1)", s.Version)
	}
	nonNegative(e, "replicates", s.Replicates)
	p := &Plan{spec: s}
	for _, m := range models {
		if m.name == s.Model {
			p.model = m
		} else if m.has != nil && m.has(&s) {
			e.add(m.section, "section is only valid for %v (spec has model %q)", m, s.Model)
		}
	}
	m := p.model
	if m == nil {
		return nil, errf("model", "unknown model %q (known: %v)", s.Model, Models()) // all else depends on it
	}

	p.budgetKind = m.budget
	m.problem(p, e)
	p.engine(e)
	if m.check != nil {
		m.check(p, e)
	}
	p.budget(e)
	if len(e.Fields) > 0 {
		return nil, e
	}
	return p, nil
}

// sizeOK checks problem.size against a registry entry's minimum (0 = the
// problem has one fixed size and ignores the field).
func sizeOK(e *Error, name string, size, minSize int) bool {
	if size < minSize {
		e.add("problem.size", "must be at least %d for %q", minSize, name)
	}
	nonNegative(e, "problem.size", size)
	return size >= max(minSize, 0)
}

// Instance materialises the problem the spec names, using defaultSeed
// for seed-parameterised instances unless the spec pins its own seed.
// Callers that only need to inspect the problem (its name, direction or
// known optimum) can use it without building a whole runtime.
func (ps ProblemSpec) Instance(defaultSeed uint64) (core.Problem, *Error) {
	entry, err := problems.Lookup(ps.Name)
	if err != nil {
		return nil, errf("problem.name", "unknown problem %q (known: %v)", ps.Name, problems.Keys())
	}
	if e := (&Error{}); !sizeOK(e, ps.Name, ps.Size, entry.MinSize) {
		return nil, e
	}
	if ps.Seed != nil {
		defaultSeed = *ps.Seed
	}
	return entry.Make(ps.Size, defaultSeed), nil
}

// registryProblem constructs the single-objective problem; its instance
// seed defaults to the run seed.
func (p *Plan) registryProblem(e *Error) {
	prob, perr := p.spec.Problem.Instance(p.spec.Seed)
	if perr != nil {
		e.Fields = append(e.Fields, perr.Fields...)
		return
	}
	p.prob = prob
}

// realProblem is registryProblem for hga, which evaluates a real-valued
// benchmark through its quantized multi-fidelity wrapper.
func (p *Plan) realProblem(e *Error) {
	p.registryProblem(e)
	rf, ok := p.prob.(*problems.RealFunc)
	if !ok && p.prob != nil {
		e.add("problem.name", "%v needs a real-valued benchmark (sphere, rastrigin, ...)", p.model)
	}
	p.fidelity = hga.NewQuantized(rf) // its level count is the wrapper's own
}

// simProblem constructs sim's multi-objective problem.
func (p *Plan) simProblem(e *Error) {
	ps := p.spec.Problem
	entry, ok := simProblems.find(ps.Name)
	if !ok {
		e.add("problem.name", "%v needs a multi-objective problem (%s)", p.model, simProblems.names())
	} else if sizeOK(e, ps.Name, ps.Size, entry.minSize) {
		p.scenario.Problem = entry.make(ps.Size)
	}
}

// engine resolves the Engine section against the model's engine family
// and the problem's genome class.
func (p *Plan) engine(e *Error) {
	es, m := p.spec.Engine, p.model
	p.family = m.family
	switch {
	case m.demes:
		p.family = demeEngines.pick(e, "engine.type", "deme engine", es.Type)
	case m.family == nil:
		if es != (EngineSpec{}) {
			e.add("engine", "%v runs fixed internal sub-EAs; configure its own section instead", m)
		}
		return
	case es.Type != "":
		e.add("engine.type", "only islands/p2p specs pick a deme engine; %v implies the engine", m)
	}

	// Fields that mean nothing to the family.
	for _, f := range []struct {
		of        fields
		set       bool
		path, why string
	}{
		{fGap, es.GenGap != 0, "engine.gen_gap", "only generational engines take a generation gap"},
		{fGap, es.Elitism != 0, "engine.elitism", "only generational engines take elitism"},
		{fReplace, es.Replace != "", "engine.replace", "only steady-state engines take a replacement policy"},
		{fWorkers, es.Workers != 0, "engine.workers", "only the parallel engine takes reproduction workers"},
		{fGrid, es.Grid != nil, "engine.grid", "only cellular engines take a grid"},
		{fPop, es.Pop != 0, "engine.pop", "cellular engines size their population as grid rows*cols; set engine.grid"},
		{fPop, es.Selector != nil, "engine.selector", "cellular engines mate within the neighbourhood; no selector"},
		{fRate, es.CrossoverRate != 0, "engine.crossover_rate", "hga demes use the engine default rate"},
	} {
		if f.set && p.family.takes&f.of == 0 {
			e.add(f.path, f.why)
		}
	}

	// Ranges ga.Config.validate and cellular.New would panic on.
	pop := cmp.Or(es.Pop, enginePop)
	if pop < 2 {
		e.add("engine.pop", "population must hold at least 2 individuals")
	}
	inUnit(e, "engine.crossover_rate", es.CrossoverRate)
	inUnit(e, "engine.gen_gap", es.GenGap)
	if es.Elitism < -1 {
		e.add("engine.elitism", "must be -1 (disabled) or a non-negative elite count")
	} else if es.Elitism >= pop {
		e.add("engine.elitism", "elite count %d must be below the population size %d", es.Elitism, pop)
	}
	p.replaceWorst = steadyReplace.pick(e, "engine.replace", "policy", es.Replace)
	p.workers = workers(e, "engine.workers", es.Workers)
	g := es.Grid
	if g == nil {
		g = &GridSpec{}
	}
	if g.Rows < 0 || g.Cols < 0 {
		e.add("engine.grid", "rows and cols must not be negative")
	} else if cmp.Or(g.Rows, gridSide)*cmp.Or(g.Cols, gridSide) < 2 {
		e.add("engine.grid", "grid must hold at least 2 cells")
	}
	p.update = gridUpdates.pick(e, "engine.grid.update", "update policy", g.Update)
	p.hood = neighborhoods.pick(e, "engine.grid.neighborhood", "neighbourhood", g.Neighborhood)

	// Operators: an empty crossover or mutator slot takes the canonical
	// operator of the problem's genome class, "none" disables the slot,
	// an empty selector leaves the engine's own default.
	class := ""
	if p.prob != nil {
		// The probe stream is throwaway: runtimes build their populations
		// from their own seeded streams.
		class, p.xover, p.mut = operators.Canonical(p.prob.NewGenome(rng.New(0)))
	}
	if op, ok := operator(e, "engine.selector", es.Selector, operators.KindSelector, class, false); ok {
		p.sel, _ = op.(operators.Selector)
	}
	if op, ok := operator(e, "engine.crossover", es.Crossover, operators.KindCrossover, class, true); ok {
		p.xover, _ = op.(operators.Crossover)
	}
	if op, ok := operator(e, "engine.mutator", es.Mutator, operators.KindMutator, class, true); ok {
		p.mut, _ = op.(operators.Mutator)
	}
}

// workers resolves a worker count.
func workers(e *Error, path string, n int) int {
	nonNegative(e, path, n)
	return cmp.Or(n, defaultWorkers)
}

// operator resolves one operator slot through the operator registry:
// known key, right kind, documented parameters inside their ranges, a
// genome class the operator is closed over. ok is false for an empty
// slot, which keeps the caller's default; wordNone, accepted where
// noneOK, resolves to a nil operator.
func operator(e *Error, path string, op *OperatorSpec, kind, class string, noneOK bool) (built any, ok bool) {
	if op == nil {
		return nil, false
	}
	if op.Name == wordNone {
		if !noneOK {
			e.add(path+".name", "%q cannot be disabled", kind)
		}
		if len(op.Params) > 0 {
			e.add(path+".params", "%q takes no parameters", wordNone)
		}
		return nil, true
	}
	entry, known := operators.LookupSpec(op.Name)
	if !known {
		e.add(path+".name", "unknown operator %q (known %ss: %v)", op.Name, kind, operators.SpecKeys(kind))
		return nil, false
	}
	if entry.Kind != kind {
		e.add(path+".name", "%q is a %s, not a %s", op.Name, entry.Kind, kind)
		return nil, false
	}
	names := make([]string, 0, len(op.Params))
	for name := range op.Params {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := op.Params[name]
		if param, documented := entry.Param(name); !documented {
			e.add(path+".params."+name, "operator %q does not take parameter %q", op.Name, name)
		} else if !(v >= param.Min && v <= param.Max) { // also catches NaN
			e.add(path+".params."+name, "%v is outside [%g, %g]", v, param.Min, param.Max)
		}
	}
	if class != "" && len(entry.Genomes) > 0 && !slices.Contains(entry.Genomes, class) {
		e.add(path+".name", "operator %q works on %v genomes; the problem uses %q", op.Name, entry.Genomes, class)
	}
	params := op.Params
	if params == nil {
		params = map[string]float64{}
	}
	return entry.Build(params), true
}

// budget checks the stop conditions against the plan's budget kind and
// resolves the generation cap and the cost budget.
func (p *Plan) budget(e *Error) {
	b, m := p.spec.Budget, p.model
	nonNegative(e, "budget.generations", b.Generations)
	nonNegative(e, "budget.evaluations", b.Evaluations)
	nonNegative(e, "budget.stagnation", b.Stagnation)
	nonNegative(e, "budget.cost", b.Cost)
	switch p.budgetKind {
	case budgetCost:
		if b != (BudgetSpec{Cost: b.Cost}) {
			e.add("budget", "%v runs on a cost budget; set budget.cost only", m)
		}
	case budgetGenerations:
		if b != (BudgetSpec{Generations: b.Generations, Cost: b.Cost}) {
			e.add("budget", "%v runs to a plain generation cap here; set budget.generations only", m)
		}
	case budgetFull:
		if _, known := p.prob.(core.TargetAware); b.TargetOptimum && p.prob != nil && !known {
			e.add("budget.target_optimum", "problem %q has no known optimum", p.spec.Problem.Name)
		}
	}
	if b.Cost != 0 && p.budgetKind != budgetCost {
		e.add("budget.cost", "%v does not run on a cost budget", m)
	}
	p.cost = cmp.Or(b.Cost, defaultHGACost)
	p.maxGens = cmp.Or(b.Generations, m.gens, defaultGenerations)
}

// StopAtOptimum adds the target-optimum stop to a plan that can take it
// — the model honours the condition and the problem's optimum is known —
// and reports whether the plan now stops there. It asks exactly what
// validating budget.target_optimum asks, of the problem already built.
func (p *Plan) StopAtOptimum() bool {
	_, known := p.prob.(core.TargetAware)
	if known && p.budgetKind == budgetFull {
		p.spec.Budget.TargetOptimum = true
	}
	return p.spec.Budget.TargetOptimum
}

// farm validates the farm section.
func (p *Plan) farm(e *Error) {
	fs := p.spec.Farm
	if fs == nil {
		fs = &FarmSpec{}
	}
	p.workers = workers(e, "farm.workers", fs.Workers)
}

// islands validates the islands section.
func (p *Plan) islands(e *Error) {
	is := p.spec.Islands
	if is == nil {
		is = &IslandSpec{}
	}
	nonNegative(e, "islands.demes", is.Demes)
	n := cmp.Or(is.Demes, defaultDemes)

	t := is.Topology
	if t.Kind == "" {
		t.Kind = topologies[0].name
	}
	kind, known := topologies.find(t.Kind)
	if !known {
		e.add("islands.topology.kind", "unknown topology %q (%s)", t.Kind, topologies.names())
	} else {
		kind.shape(e, &t, n, p.spec.Seed)
		p.topo = func() topology.Topology { return kind.build(t, n) }
	}

	mig := is.Migration
	nonNegative(e, "islands.migration.interval", mig.Interval)
	nonNegative(e, "islands.migration.count", mig.Count)
	nonNegative(e, "islands.migration.buffer", mig.Buffer)
	nonNegative(e, "islands.rewire_every", is.RewireEvery)
	// Zero values pass through to migration.Policy.WithDefaults.
	p.deme = island.Config{
		Policy: migration.Policy{
			Interval: mig.Interval, Count: mig.Count, Sync: !mig.Async, Buffer: mig.Buffer,
			Select:  migrantSelects.pick(e, "islands.migration.select", "policy", mig.Select),
			Replace: migrantReplaces.pick(e, "islands.migration.replace", "policy", mig.Replace),
		},
		RewireEvery: is.RewireEvery,
		Seed:        p.spec.Seed,
	}
	if is.RewireEvery > 0 && known && !kind.dynamic {
		e.add("islands.rewire_every", "topology %q is static; only a dynamic kind rewires", t.Kind)
	}

	p.parallel = islandModes.pick(e, "islands.mode", "mode", is.Mode)
	if p.parallel { // goroutine demes poll nothing but the generation cap
		p.budgetKind = budgetGenerations
	}
	p.resilience = resiliences.pick(e, "islands.resilience", "preset", is.Resilience)
	if p.resilience != nil && !p.parallel {
		e.add("islands.resilience", "supervision needs goroutine demes; set islands.mode (%s)", islandModes.names())
	}
	if len(is.Faults) > 0 && p.resilience == nil {
		e.add("islands.faults", "fault injection needs a resilience preset (%s)", resiliences.names())
	}
	for i, f := range is.Faults {
		path := "islands.faults[" + strconv.Itoa(i) + "]."
		kind, known := faultKinds.find(f.Kind)
		if !known {
			e.add(path+"kind", "unknown fault kind %q (%s)", f.Kind, faultKinds.names())
		} else if kind == supervise.FaultHang && f.Times != 0 {
			e.add(path+"times", "only panic faults repeat")
		} else if kind == supervise.FaultPanic && f.HangMS != 0 {
			e.add(path+"hang_ms", "only hang faults take a duration")
		}
		if f.Deme < 0 || f.Deme >= n {
			e.add(path+"deme", "deme %d out of range [0,%d)", f.Deme, n)
		}
		if f.Gen < 1 {
			e.add(path+"gen", "generation must be at least 1")
		}
		nonNegative(e, path+"times", f.Times)
		nonNegative(e, path+"hang_ms", f.HangMS)
		p.faults = append(p.faults, supervise.Fault{
			Deme: f.Deme, Gen: f.Gen, Kind: kind, Times: f.Times,
			HangFor: time.Duration(cmp.Or(f.HangMS, defaultHangMS)) * time.Millisecond,
		})
	}
}

// p2p validates the p2p section; zero values pass through to p2p.Config.
func (p *Plan) p2p(e *Error) {
	ps := p.spec.P2P
	if ps == nil {
		ps = &P2PSpec{}
	}
	nonNegative(e, "p2p.peers", ps.Peers)
	nonNegative(e, "p2p.view", ps.ViewSize)
	nonNegative(e, "p2p.gossip_every", ps.GossipEvery)
	nonNegative(e, "p2p.min_peers", ps.MinPeers)
	if ps.Peers == 1 {
		e.add("p2p.peers", "an overlay needs at least 2 peers")
	}
	inUnit(e, "p2p.churn", ps.Churn)
	inUnit(e, "p2p.rejoin", ps.Rejoin)
	p.overlay = p2p.Config{
		Peers: ps.Peers, ViewSize: ps.ViewSize, GossipEvery: ps.GossipEvery,
		ChurnRate: ps.Churn, RejoinRate: ps.Rejoin, MinPeers: ps.MinPeers,
	}
}

// hga validates the hga section. Levels are checked against the
// resolved layers and the fidelity levels the wrapper really has.
func (p *Plan) hga(e *Error) {
	hs := p.spec.HGA
	if hs == nil {
		hs = &HGASpec{}
	}
	layers := hs.Layers
	if len(layers) == 0 {
		layers = defaultHGALayers
	}
	for i, n := range layers {
		if n < 1 {
			e.add("hga.layers["+strconv.Itoa(i)+"]", "layer must hold at least 1 deme")
		}
	}
	if hs.Levels != nil && len(hs.Levels) != len(layers) {
		e.add("hga.levels", "must have one entry per layer (%d layers, %d levels)", len(layers), len(hs.Levels))
	}
	for i, l := range hs.Levels {
		if l < 0 || l >= p.fidelity.Levels() {
			e.add("hga.levels["+strconv.Itoa(i)+"]", "fidelity level %d out of range [0,%d)", l, p.fidelity.Levels())
		}
	}
	nonNegative(e, "hga.interval", hs.Interval)
	p.hierarchy = hga.Config{LayerSizes: layers, LevelOf: hs.Levels, MigrationInterval: hs.Interval}
}

// sim validates the sim section; zero values pass through to sim.Config.
func (p *Plan) sim(e *Error) {
	ss := p.spec.SIM
	if ss == nil {
		ss = &SIMSpec{}
	}
	if ss.Scenario < 0 || ss.Scenario > int(sim.S7) {
		e.add("sim.scenario", "scenario %d out of range 1..%d", ss.Scenario, int(sim.S7))
	}
	nonNegative(e, "sim.deme_size", ss.DemeSize)
	if ss.DemeSize == 1 {
		e.add("sim.deme_size", "an island must hold at least 2 individuals")
	}
	nonNegative(e, "sim.interval", ss.Interval)
	nonNegative(e, "sim.archive_cap", ss.ArchiveCap)
	p.scenario.Scenario = sim.Scenario(cmp.Or(ss.Scenario, defaultScenario))
	p.scenario.DemeSize, p.scenario.MigrationInterval, p.scenario.ArchiveCap = ss.DemeSize, ss.Interval, ss.ArchiveCap
	switch len(ss.HVRef) {
	case 0:
	case 2:
		p.scenario.HVRef = [2]float64{ss.HVRef[0], ss.HVRef[1]}
	default:
		e.add("sim.hv_ref", "reference point is [f1, f2]")
	}
}

// gaConfig assembles a ga.Config on stream r, passing spec zero values
// through so ga's own defaulting stays authoritative.
func (p *Plan) gaConfig(r *rng.Source) ga.Config {
	es := p.spec.Engine
	return ga.Config{
		Problem: p.prob, PopSize: es.Pop,
		Selector: p.sel, Crossover: p.xover, CrossoverRate: es.CrossoverRate, Mutator: p.mut,
		Elitism: es.Elitism, GenGap: es.GenGap, RNG: r,
	}
}

// grid assembles a cellular.Config on stream r.
func (p *Plan) grid(r *rng.Source) cellular.Config {
	g := p.spec.Engine.Grid
	if g == nil {
		g = &GridSpec{}
	}
	return cellular.Config{
		Problem: p.prob, Rows: g.Rows, Cols: g.Cols, Neighborhood: p.hood, Update: p.update,
		Crossover: p.xover, CrossoverRate: p.spec.Engine.CrossoverRate, Mutator: p.mut, RNG: r,
	}
}

// demeEngine builds one deme's engine of the islands and p2p models.
func (p *Plan) demeEngine(_ int, r *rng.Source) ga.Engine { return p.family.engine(p, r) }

// IslandConfig assembles the island runtime's config from a plan of
// model "islands": what island.New is built from, and what a wire
// front end (cmd/pgaisland) takes its topology, policy and deme engine
// from. Each call returns fresh stateful parts.
func (p *Plan) IslandConfig() island.Config {
	cfg := p.deme
	cfg.Topology, cfg.NewEngine = p.topo(), p.demeEngine
	if p.resilience != nil {
		preset := *p.resilience
		cfg.Resilience = &preset
	}
	if len(p.faults) > 0 {
		cfg.Faults = supervise.NewFaultPlan()
		for _, f := range p.faults {
			cfg.Faults.Add(f)
		}
	}
	return cfg
}

// Build constructs the plan's runtime.
func (p *Plan) Build() *Built {
	b := &Built{Spec: p.spec, Problem: p.prob, plan: p}
	if p.prob != nil {
		b.Stop = p.stop()
	}
	p.model.build(p, b)
	return b
}

// stop composes the stop condition from the budget; made per Build
// because stagnation conditions are stateful. A single condition is
// returned unwrapped so its StopReason matches a hand-wired run exactly.
func (p *Plan) stop() core.StopCondition {
	b, dir := p.spec.Budget, p.prob.Direction()
	conds := core.AnyOf{core.MaxGenerations(p.maxGens)}
	if b.Evaluations > 0 {
		conds = append(conds, core.MaxEvaluations(b.Evaluations))
	}
	if b.Target != nil {
		conds = append(conds, core.TargetFitness{Target: *b.Target, Dir: dir})
	}
	if ta, ok := p.prob.(core.TargetAware); ok && b.TargetOptimum {
		conds = append(conds, core.TargetFitness{Target: ta.Optimum(), Dir: dir})
	}
	if b.Stagnation > 0 {
		conds = append(conds, core.NewStagnation(b.Stagnation))
	}
	if len(conds) == 1 {
		return conds[0]
	}
	return conds
}
