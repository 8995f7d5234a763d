package spec

import (
	"math/bits"
	"strings"

	"pga/internal/cellular"
	"pga/internal/ga"
	"pga/internal/migration"
	"pga/internal/rng"
	"pga/internal/sim"
	"pga/internal/supervise"
	"pga/internal/topology"
)

// Defaults the spec layer applies itself. Everything else a sparse
// document leaves at zero passes through to the runtime configs, whose
// own defaulting stays authoritative; the engine population and the
// cellular grid side are restated here only because a range check needs
// the effective value.
const (
	defaultGenerations    = 300  // budget with nothing set
	defaultSIMGenerations = 60   // sim's own per-island default
	defaultHGACost        = 2000 // budget.cost
	defaultDemes          = 8    // islands.demes
	defaultDegree         = 3    // islands.topology.degree
	defaultWorkers        = 4    // engine.workers and farm.workers
	defaultHangMS         = 50   // islands.faults[i].hang_ms
	defaultScenario       = 1    // sim.scenario
	enginePop             = 100  // ga.Config.PopSize default, for the elitism bound
	gridSide              = 10   // cellular.Config.Rows/Cols default, for the cell count
)

// defaultHGALayers is hga.layers when the document gives none.
var defaultHGALayers = []int{1, 2, 4}

// Words more than one vocabulary uses.
const (
	wordNone   = "none"
	wordRandom = "random"
	wordWorst  = "worst"
)

// vocab is one closed vocabulary of the schema: its names in the order
// error text lists them, each with the value it stands for. Where a
// field may be left empty, the first entry is what empty means. A name
// resolves through its table and nowhere else, so one that validates
// has a value to build from.
type vocab[T any] []struct {
	name string
	val  T
}

// names renders the vocabulary as "a | b | c".
func (v vocab[T]) names() string {
	out := make([]string, len(v))
	for i, ent := range v {
		out[i] = ent.name
	}
	return strings.Join(out, " | ")
}

// find returns the value called name.
func (v vocab[T]) find(name string) (T, bool) {
	for _, ent := range v {
		if ent.name == name {
			return ent.val, true
		}
	}
	var zero T
	return zero, false
}

// pick resolves an optional field: empty selects the first entry, an
// unknown name is reported at path (and resolves to the first entry so
// the pass can go on collecting errors).
func (v vocab[T]) pick(e *Error, path, what, name string) T {
	if name == "" {
		return v[0].val
	}
	val, ok := v.find(name)
	if !ok {
		e.add(path, "unknown %s %q (%s)", what, name, v.names())
		return v[0].val
	}
	return val
}

// fields is a set of Engine-section fields.
type fields uint

const (
	fGap     fields = 1 << iota // gen_gap, elitism
	fReplace                    // replace
	fWorkers                    // workers
	fGrid                       // grid
	fPop                        // pop, selector
	fRate                       // crossover_rate
)

// family is one engine family: the Engine-section fields that mean
// something to it and the constructor of one engine on stream r (nil
// for hga, which builds its demes itself).
type family struct {
	takes  fields
	engine func(p *Plan, r *rng.Source) ga.Engine
}

var (
	famGenerational = &family{fGap | fPop | fRate, func(p *Plan, r *rng.Source) ga.Engine {
		return ga.NewGenerational(p.gaConfig(r))
	}}
	famSteadyState = &family{fReplace | fPop | fRate, func(p *Plan, r *rng.Source) ga.Engine {
		return ga.NewSteadyState(p.gaConfig(r), p.replaceWorst)
	}}
	famParallel = &family{fGap | fWorkers | fPop | fRate, func(p *Plan, r *rng.Source) ga.Engine {
		return ga.NewParallelGenerational(p.gaConfig(r), p.workers)
	}}
	famCellular = &family{fGrid | fRate, func(p *Plan, r *rng.Source) ga.Engine {
		return cellular.New(p.grid(r))
	}}
	famHGA = &family{takes: fPop}
)

// The vocabularies, one table each.
var (
	// engine.type: the deme engine of islands/p2p, named like the model
	// that runs the same engine panmictically.
	demeEngines = vocab[*family]{
		{ModelGenerational, famGenerational}, {ModelSteadyState, famSteadyState}, {ModelCellular, famCellular},
	}
	// engine.replace: whether a steady-state child replaces the worst.
	steadyReplace = vocab[bool]{{wordWorst, true}, {wordRandom, false}}
	// engine.grid.update
	gridUpdates = vocab[cellular.UpdatePolicy]{
		{"sync", cellular.Synchronous}, {"ls", cellular.LineSweep}, {"frs", cellular.FixedRandomSweep},
		{"nrs", cellular.NewRandomSweep}, {"uc", cellular.UniformChoice},
	}
	// engine.grid.neighborhood
	neighborhoods = vocab[cellular.Neighborhood]{
		{"l5", cellular.VonNeumann}, {"c9", cellular.Moore}, {"l9", cellular.Linear9},
	}
	// islands.mode: whether demes run as goroutines.
	islandModes = vocab[bool]{{"sequential", false}, {ModelParallel, true}}
	// islands.migration.select; nil leaves migration.Policy's default.
	migrantSelects = vocab[migration.Selector]{
		{"best", nil}, {wordRandom, migration.SelectRandom{}}, {"tournament", migration.SelectTournament{}},
	}
	// islands.migration.replace; nil leaves migration.Policy's default.
	migrantReplaces = vocab[migration.Replacer]{
		{wordWorst, nil}, {"worst-if-better", migration.ReplaceWorstIfBetter{}}, {wordRandom, migration.ReplaceRandom{}},
	}
	// islands.resilience; nil runs unsupervised.
	resiliences = vocab[*supervise.Config]{
		{wordNone, nil}, {"default", &supervise.Config{}}, {"eager", &supervise.Config{CheckpointEvery: 1, MaxRestarts: 5}},
	}
	// islands.faults[i].kind (required: no default entry).
	faultKinds = vocab[supervise.FaultKind]{{"panic", supervise.FaultPanic}, {"hang", supervise.FaultHang}}
	// problem.name under model "sim" (required). minSize 0 marks a
	// fixed-size problem, as problems.Spec.MinSize does.
	simProblems = vocab[simProblem]{
		{"zdt1", simProblem{1, func(size int) sim.MultiObjective { return sim.ZDT1{Dim: size} }}},
		{"schaffer", simProblem{0, func(int) sim.MultiObjective { return sim.Schaffer{} }}},
	}
)

// simProblem is one multi-objective benchmark of model "sim".
type simProblem struct {
	minSize int
	make    func(size int) sim.MultiObjective
}

// topoKind is one islands.topology.kind: the rule its shape parameters
// must meet for n demes — shape also fills in the kind's defaults — and
// the constructor from a shape that met it.
type topoKind struct {
	shape   func(e *Error, t *TopologySpec, n int, seed uint64)
	build   func(t TopologySpec, n int) topology.Topology
	dynamic bool // rewirable (islands.rewire_every)
}

var topologies = vocab[topoKind]{
	{"ring", plain(topology.Ring)},
	{"biring", plain(topology.BiRing)},
	{"star", plain(topology.Star)},
	{"complete", plain(topology.Complete)},
	{"hypercube", topoKind{
		shape: func(e *Error, t *TopologySpec, n int, seed uint64) {
			shapeless(e, t, n, seed)
			if n&(n-1) != 0 {
				e.add("islands.topology.kind", "%s needs a power-of-two deme count (got %d)", t.Kind, n)
			}
		},
		build: func(_ TopologySpec, n int) topology.Topology { return topology.Hypercube(bits.Len(uint(n)) - 1) },
	}},
	{"isolated", plain(topology.Isolated)},
	{"grid", lattice(topology.Grid)},
	{"torus", lattice(topology.Torus)},
	{wordRandom, topoKind{
		shape: func(e *Error, t *TopologySpec, n int, seed uint64) {
			if t.Rows != 0 || t.Cols != 0 {
				e.add("islands.topology", "%q takes degree/seed, not rows/cols", t.Kind)
			}
			if t.Degree == 0 {
				t.Degree = defaultDegree
			}
			if t.Seed == 0 {
				t.Seed = seed
			}
			if t.Degree < 1 || t.Degree >= n {
				e.add("islands.topology.degree", "degree %d out of range [1,%d)", t.Degree, n)
			} else if t.Degree*n%2 != 0 {
				e.add("islands.topology.degree", "degree %d with %d demes has no regular graph (odd handshake sum)", t.Degree, n)
			}
		},
		build: func(t TopologySpec, n int) topology.Topology {
			return topology.NewDynamic(func(ts uint64) topology.Topology {
				return topology.RandomRegular(n, t.Degree, ts)
			}, t.Seed)
		},
		dynamic: true,
	}},
}

// shapeless is the shape rule of the kinds the deme count alone fixes.
func shapeless(e *Error, t *TopologySpec, _ int, _ uint64) {
	if t.Rows != 0 || t.Cols != 0 || t.Degree != 0 || t.Seed != 0 {
		e.add("islands.topology", "%q takes no shape parameters", t.Kind)
	}
}

func plain(ctor func(n int) topology.Topology) topoKind {
	return topoKind{shape: shapeless, build: func(_ TopologySpec, n int) topology.Topology { return ctor(n) }}
}

// lattice is a rows×cols kind: both given, their product the deme count.
func lattice(ctor func(rows, cols int) topology.Topology) topoKind {
	return topoKind{
		shape: func(e *Error, t *TopologySpec, n int, _ uint64) {
			if t.Degree != 0 || t.Seed != 0 {
				e.add("islands.topology", "%q takes rows/cols, not degree/seed", t.Kind)
			}
			if t.Rows < 1 || t.Cols < 1 {
				e.add("islands.topology", "%q needs explicit rows and cols", t.Kind)
			} else if t.Rows*t.Cols != n {
				e.add("islands.topology", "rows*cols = %d must equal the deme count %d", t.Rows*t.Cols, n)
			}
		},
		build: func(t TopologySpec, _ int) topology.Topology { return ctor(t.Rows, t.Cols) },
	}
}
