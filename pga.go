// Package pga is a parallel genetic algorithms library for Go.
//
// It implements the taxonomy of parallel GA models surveyed in Konfršt,
// "Parallel Genetic Algorithms: Advances, Computing Trends, Applications
// and Perspectives" (IPPS 2004), and reaches it by two routes.
//
// A run spec names a registry problem, the operators, one of the nine
// models (generational, steady-state, shared-memory parallel, cellular,
// islands, master–slave, peer-to-peer, hierarchical, specialized
// islands) and a budget as one JSON document. ParseSpec and BuildSpec
// turn it into a runnable BuiltSpec; `pgarun -config` runs the same
// documents, sweeps included (examples/sweeps).
//
// A problem of your own — any type implementing Problem — goes through
// the Go constructors instead, since no registry can name it:
// NewGenerational and Run for one population, NewIslands (or
// NewIslandsWithEngines) for the island model, NewFarm as the evaluator
// of the master–slave model, and CaptureCheckpoint / LoadCheckpoint for
// an exact save and resume.
//
// Every run is reproducible from its seed, parallel island runs with
// synchronous migration included. The Example functions of this package
// are the complete programs; DESIGN.md maps the internal packages to the
// surveyed literature.
package pga

import (
	"pga/internal/core"
	"pga/internal/engine"
	"pga/internal/ga"
	"pga/internal/genome"
	"pga/internal/island"
	"pga/internal/masterslave"
	"pga/internal/migration"
	"pga/internal/operators"
	"pga/internal/persist"
	"pga/internal/problems"
	"pga/internal/rng"
	"pga/internal/spec"
	"pga/internal/supervise"
	"pga/internal/topology"
)

// Core abstractions.
type (
	// Problem is an optimisation problem: genome factory plus fitness.
	Problem = core.Problem
	// Genome is an encoded candidate solution.
	Genome = core.Genome
	// Population is an ordered set of individuals (a deme).
	Population = core.Population
	// Direction states whether fitness is maximised or minimised.
	Direction = core.Direction
	// Result summarises a sequential run.
	Result = core.Result
	// Status is the per-step snapshot passed to stop conditions.
	Status = core.Status
	// StopCondition terminates runs.
	StopCondition = core.StopCondition
	// RNG is the library's deterministic splittable random source.
	RNG = rng.Source
)

// Fitness directions.
const (
	Maximize = core.Maximize
	Minimize = core.Minimize
)

// NewRNG returns a deterministic random source seeded with seed.
func NewRNG(seed uint64) *RNG { return rng.New(seed) }

// Stop conditions.
type (
	// MaxGenerations stops after N steps.
	MaxGenerations = core.MaxGenerations
	// MaxEvaluations stops after N fitness evaluations.
	MaxEvaluations = core.MaxEvaluations
	// TargetFitness stops at a fitness threshold.
	TargetFitness = core.TargetFitness
	// AnyOf stops when any child condition fires.
	AnyOf = core.AnyOf
)

// Target returns a stop condition that fires when p's known optimum is
// reached, under p's own tolerance (core.AtOptimum): the run stops at the
// generation it records as solved. It panics if p has no known optimum.
func Target(p Problem) StopCondition {
	ta, ok := p.(core.TargetAware)
	if !ok {
		panic("pga: Target requires a problem with a known optimum")
	}
	return core.AtOptimum{Target: ta}
}

// Genome representations a Problem's NewGenome may return.
type (
	// BitString is a binary chromosome.
	BitString = genome.BitString
	// RealVector is a bounded real-valued chromosome.
	RealVector = genome.RealVector
	// Permutation is an ordering chromosome.
	Permutation = genome.Permutation
)

// Variation operators, one crossover and one mutator per genome kind.
type (
	// UniformCrossover exchanges bits independently.
	UniformCrossover = operators.Uniform
	// BitFlip flips bits with a per-gene probability.
	BitFlip = operators.BitFlip
	// SBXCrossover is simulated binary crossover for real vectors.
	SBXCrossover = operators.SBX
	// PolynomialMutation is Deb's polynomial mutation for real vectors.
	PolynomialMutation = operators.Polynomial
	// OXCrossover is order crossover for permutations.
	OXCrossover = operators.OX
	// InversionMutation reverses a permutation slice.
	InversionMutation = operators.Inversion
)

// OneMax returns the n-bit OneMax problem.
func OneMax(n int) Problem { return problems.OneMax{N: n} }

// Rastrigin returns the dim-dimensional Rastrigin function (minimised).
func Rastrigin(dim int) Problem { return problems.Rastrigin(dim) }

// Engines.
type (
	// Engine is a stepwise-evolving population.
	Engine = ga.Engine
	// GAConfig configures a generational engine.
	GAConfig = ga.Config
	// RunOptions tunes Run.
	RunOptions = ga.RunOptions
	// Control is the caller's control over a run: the Context that
	// cancels it (the run ends within one generation with stop reason
	// "cancelled" and truthful partial stats) and the Observers, whose
	// OnGeneration hears every generation's Status. Every run entry takes
	// one — inside RunOptions for Run, as the last argument elsewhere;
	// Control{} is an unwatched, uncancellable run. A per-generation trace
	// is SpecRunOpts.Trace, an observer the spec layer attaches.
	Control = engine.Control
)

// NewGenerational returns a generational GA engine. If cfg.RNG is nil a
// stream seeded with 0 is used.
func NewGenerational(cfg GAConfig) Engine {
	if cfg.RNG == nil {
		cfg.RNG = rng.New(0)
	}
	return ga.NewGenerational(cfg)
}

// Run drives an engine until the stop condition fires.
func Run(e Engine, opts RunOptions) *Result { return ga.Run(e, opts) }

// TopologyKind selects a built-in island topology. Run specs name the
// rest (star, complete, hypercube, grid, torus, random, isolated).
type TopologyKind int

// Built-in topologies for IslandConfig.
const (
	// Ring is a unidirectional ring.
	Ring TopologyKind = iota
	// BiRing is a bidirectional ring.
	BiRing
)

// Migration is the island migration policy.
type Migration = migration.Policy

// Deme supervision (see internal/supervise).
type (
	// Resilience tunes the island supervision layer: checkpoint cadence,
	// restart budget, heartbeat deadline, backoff and the async
	// dead-letter retry bound. The zero value selects sensible defaults.
	Resilience = supervise.Config
	// FaultPlan deterministically injects panics and hangs at exact
	// (deme, generation) coordinates — the testing harness behind the
	// supervision layer.
	FaultPlan = supervise.FaultPlan
)

// NewFaultPlan returns an empty fault-injection plan; chain PanicAt,
// PanicTimes and HangAt to script faults.
func NewFaultPlan() *FaultPlan { return supervise.NewFaultPlan() }

// IslandConfig configures an island-model (coarse-grained) PGA.
type IslandConfig struct {
	// Demes is the number of islands.
	Demes int
	// Topology is one of the built-in kinds.
	Topology TopologyKind
	// GA configures each deme's engine (the RNG field is ignored: every
	// deme receives its own stream split from Seed).
	GA GAConfig
	// Migration is the migration policy.
	Migration Migration
	// Seed seeds the whole model.
	Seed uint64
	// Resilience enables deme supervision for RunParallel: panic
	// recovery, checkpoint/restart, hang detection, topology healing.
	// nil runs unsupervised (set automatically when Faults is non-nil).
	Resilience *Resilience
	// Faults optionally injects deterministic faults into a supervised
	// run (testing and experiments; ignored when Resilience is nil and
	// Faults is nil).
	Faults *FaultPlan
}

// IslandModel is the coarse-grained PGA.
type IslandModel = island.Model

// IslandResult summarises an island run.
type IslandResult = island.Result

// NewIslands builds an island model with identical generational demes.
func NewIslands(cfg IslandConfig) *IslandModel {
	gaCfg := cfg.GA
	return NewIslandsWithEngines(cfg, func(deme int, r *RNG) Engine {
		c := gaCfg
		c.RNG = r
		return ga.NewGenerational(c)
	})
}

// NewIslandsWithEngines builds an island model with a custom per-deme
// engine factory — for heterogeneous demes (Alba & Troya 2002's mixed
// schemes), or the hybrid model where each deme evaluates through its
// own master–slave farm (the cluster-of-SMPs pattern of the survey's
// §3.3). The factory replaces the GA field of cfg; everything else
// (topology, migration, seed, resilience) applies unchanged, and the
// factory is also what supervision uses to rebuild a crashed deme.
func NewIslandsWithEngines(cfg IslandConfig, newEngine func(deme int, r *RNG) Engine) *IslandModel {
	if cfg.Demes == 0 {
		cfg.Demes = 4
	}
	res := cfg.Resilience
	if res == nil && cfg.Faults != nil {
		// A fault plan without explicit tuning still wants supervision.
		res = &Resilience{}
	}
	top := topology.Ring
	if cfg.Topology == BiRing {
		top = topology.BiRing
	}
	return island.New(island.Config{
		Topology:   top(cfg.Demes),
		Policy:     cfg.Migration,
		NewEngine:  func(deme int, r *rng.Source) ga.Engine { return newEngine(deme, r) },
		Seed:       cfg.Seed,
		Resilience: res,
		Faults:     cfg.Faults,
	})
}

// Master–slave model.
type (
	// Farm is the parallel fitness-evaluation farm (plug it into
	// GAConfig.Evaluator).
	Farm = masterslave.Farm
	// WorkerSpec configures one farm worker: speed, failure probability
	// and the failure count after which it dies.
	WorkerSpec = masterslave.WorkerSpec
)

// NewFarm creates a fault-tolerant evaluation farm.
func NewFarm(seed uint64, specs []WorkerSpec) *Farm { return masterslave.NewFarm(seed, specs) }

// UniformWorkers returns n identical fault-free workers.
func UniformWorkers(n int) []WorkerSpec { return masterslave.Uniform(n) }

// Checkpoint is a serialisable snapshot of a population plus the RNG
// stream driving its engine (GALOPPS-style exact save/restore; see
// internal/persist).
type Checkpoint = persist.Checkpoint

// CaptureCheckpoint snapshots a population and its engine stream.
func CaptureCheckpoint(pop *Population, r *RNG, generation int, evaluations int64) (*Checkpoint, error) {
	return persist.Capture(pop, r, generation, evaluations)
}

// LoadCheckpoint parses a serialised checkpoint.
func LoadCheckpoint(data []byte) (*Checkpoint, error) {
	return persist.UnmarshalCheckpoint(data)
}

// Declarative run specifications (see internal/spec and DESIGN.md §11).
type (
	// Spec is the declarative run specification: problem, genome and
	// operator choices, model and its parameters, resilience plan, budget
	// and seed — everything a run needs, as one JSON-serialisable value.
	Spec = spec.RunSpec
	// BuiltSpec is a validated Spec materialised into a runtime; its Run
	// method drives whichever model the spec selected and renders a
	// deterministic report.
	BuiltSpec = spec.Built
	// SpecReport is the deterministic run summary a built spec produces
	// (no timing fields, so run-twice output is byte-identical).
	SpecReport = spec.Report
	// SpecRunOpts tunes BuiltSpec.Run (run control, per-generation
	// trace and callback).
	SpecRunOpts = spec.RunOpts
)

// ParseSpec strictly parses and validates one JSON run spec, returning
// structured field errors on malformed input (it never panics).
func ParseSpec(data []byte) (*Spec, error) { return spec.Parse(data) }

// BuildSpec validates s and constructs its runtime.
func BuildSpec(s Spec) (*BuiltSpec, error) { return spec.Build(s) }
