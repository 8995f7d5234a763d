// Package pga is a parallel genetic algorithms library for Go.
//
// It implements the full taxonomy of parallel GA models surveyed in
// Konfršt, "Parallel Genetic Algorithms: Advances, Computing Trends,
// Applications and Perspectives" (IPPS 2004):
//
//   - sequential baselines: generational (with generation gap) and
//     steady-state GAs (NewGenerational, NewSteadyState);
//   - the global master–slave model: parallel fitness evaluation with
//     fault tolerance (NewFarm);
//   - the coarse-grained island model: goroutine-per-deme evolution with
//     channel-based migration over configurable topologies (NewIslands);
//   - the fine-grained cellular model: toroidal grids with synchronous and
//     asynchronous update policies (NewCellular);
//   - the shared-memory global model with fully parallel reproduction
//     (NewParallelGenerational — Bethke/Grefenstette);
//   - the hierarchical multi-fidelity model of Sefrioui & Périaux
//     (NewHGA);
//   - the specialized island model of Xiao & Armstrong for multi-objective
//     problems (RunSIM);
//   - a DREAM-style peer-to-peer gossip overlay with node churn (NewP2P).
//
// Long runs checkpoint and resume exactly (CaptureCheckpoint /
// LoadCheckpoint): a restored run is bit-identical to an uninterrupted
// one.
//
// The library is deterministic: every run is reproducible from its seed,
// including parallel island runs in synchronous mode (asynchronous
// migration is the only scheduling-dependent mode, as in the systems the
// survey reviews).
//
// A minimal island-model run:
//
//	prob := pga.OneMax(128)
//	res := pga.NewIslands(pga.IslandConfig{
//		Demes:    8,
//		Topology: pga.Ring,
//		GA: pga.GAConfig{
//			Problem:   prob,
//			PopSize:   50,
//			Crossover: pga.UniformCrossover{},
//			Mutator:   pga.BitFlip{},
//		},
//		Migration: pga.Migration{Interval: 10, Count: 2},
//		Seed:      42,
//	}).RunSequential(pga.AnyOf{
//		pga.MaxGenerations(500),
//		pga.Target(prob),
//	}, pga.Control{})
//
// See the examples directory for complete programs and DESIGN.md for the
// mapping between packages and the surveyed literature.
package pga

import (
	"pga/internal/cellular"
	"pga/internal/core"
	"pga/internal/engine"
	"pga/internal/ga"
	"pga/internal/genome"
	"pga/internal/hga"
	"pga/internal/island"
	"pga/internal/masterslave"
	"pga/internal/migration"
	"pga/internal/operators"
	"pga/internal/p2p"
	"pga/internal/persist"
	"pga/internal/problems"
	"pga/internal/rng"
	"pga/internal/sim"
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
	// Individual pairs a genome with its fitness.
	Individual = core.Individual
	// Population is an ordered set of individuals (a deme).
	Population = core.Population
	// Direction states whether fitness is maximised or minimised.
	Direction = core.Direction
	// Result summarises a sequential run.
	Result = core.Result
	// RunStats is the accounting block shared by every runtime's result:
	// all Result types (Result, IslandResult, HGAResult, SIMResult,
	// P2PResult) embed it, so the common fields read uniformly.
	RunStats = core.RunStats
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

// NewStagnation stops after limit non-improving steps.
func NewStagnation(limit int) StopCondition { return core.NewStagnation(limit) }

// Target returns a stop condition that fires when p's known optimum is
// reached; it panics if p has no known optimum.
func Target(p Problem) StopCondition {
	ta, ok := p.(core.TargetAware)
	if !ok {
		panic("pga: Target requires a problem with a known optimum")
	}
	return core.TargetFitness{Target: ta.Optimum(), Dir: p.Direction()}
}

// Genome representations.
type (
	// BitString is a binary chromosome.
	BitString = genome.BitString
	// RealVector is a bounded real-valued chromosome.
	RealVector = genome.RealVector
	// IntVector is a bounded integer chromosome.
	IntVector = genome.IntVector
	// Permutation is an ordering chromosome.
	Permutation = genome.Permutation
)

// Selection operators.
type (
	// TournamentSelection is k-tournament parent selection.
	TournamentSelection = operators.Tournament
	// RouletteSelection is fitness-proportionate selection.
	RouletteSelection = operators.Roulette
	// RankSelection is linear-ranking selection.
	RankSelection = operators.LinearRank
	// TruncationSelection selects among the best fraction.
	TruncationSelection = operators.Truncation
)

// Crossover operators.
type (
	// OnePointCrossover cuts once.
	OnePointCrossover = operators.OnePoint
	// TwoPointCrossover cuts twice.
	TwoPointCrossover = operators.TwoPoint
	// UniformCrossover exchanges genes independently.
	UniformCrossover = operators.Uniform
	// SBXCrossover is simulated binary crossover for real vectors.
	SBXCrossover = operators.SBX
	// BLXCrossover is blend crossover for real vectors.
	BLXCrossover = operators.BLX
	// OXCrossover is order crossover for permutations.
	OXCrossover = operators.OX
	// PMXCrossover is partially-mapped crossover for permutations.
	PMXCrossover = operators.PMX
	// ERXCrossover is edge-recombination crossover for permutations.
	ERXCrossover = operators.ERX
	// UniformWordCrossover is word-granular uniform crossover for bit
	// strings: one RNG word serves 64 genes (packed-layout fast path;
	// draws differ from UniformCrossover).
	UniformWordCrossover = operators.UniformWord
	// KPointWordCrossover is k-point crossover for bit strings executed
	// as masked word swaps (same cut draws as KPointCrossover, word-wise
	// segment exchange).
	KPointWordCrossover = operators.KPointWord
)

// Mutation operators.
type (
	// BitFlip flips bits with a per-gene probability.
	BitFlip = operators.BitFlip
	// BlockFlipMutation flips bits word-at-a-time with per-gene
	// probability 2^-K (K AND-ed mask draws per 64-gene word).
	BlockFlipMutation = operators.BlockFlip
	// GaussianMutation perturbs real genes.
	GaussianMutation = operators.Gaussian
	// PolynomialMutation is Deb's polynomial mutation.
	PolynomialMutation = operators.Polynomial
	// SwapMutation exchanges two genes.
	SwapMutation = operators.Swap
	// InversionMutation reverses a permutation slice.
	InversionMutation = operators.Inversion
)

// Benchmark problems (see internal/problems for the full catalogue).
var (
	// Sphere is the unimodal sphere function (minimised).
	Sphere = problems.Sphere
	// Rastrigin is the multimodal Rastrigin function (minimised).
	Rastrigin = problems.Rastrigin
	// Rosenbrock is the banana-valley function (minimised).
	Rosenbrock = problems.Rosenbrock
	// Ackley is the Ackley function (minimised).
	Ackley = problems.Ackley
	// Griewank is the Griewank function (minimised).
	Griewank = problems.Griewank
	// Schwefel is Schwefel's function (minimised).
	Schwefel = problems.Schwefel
	// Step is De Jong's plateau function F3 (minimised).
	Step = problems.Step
	// Foxholes is Shekel's foxholes, De Jong F5 (minimised, 2-D).
	Foxholes = problems.Foxholes
)

// OneMax returns the n-bit OneMax problem.
func OneMax(n int) Problem { return problems.OneMax{N: n} }

// BatchProblem is the optional batched-fitness extension: problems
// implementing it are handed whole pending sets by the serial evaluator
// and the master–slave farm.
type BatchProblem = core.BatchProblem

// NewCachedProblem wraps p with a bounded fitness memo-cache keyed by
// genome content (capacity <= 0 selects the 65536-entry default). Cache
// hit/miss counters surface on Result.CacheHits / Result.CacheMisses.
func NewCachedProblem(p Problem, capacity int) Problem {
	return core.NewCachedProblem(p, capacity)
}

// DeceptiveTrap returns a deceptive trap problem with blocks of k bits.
func DeceptiveTrap(blocks, k int) Problem { return problems.DeceptiveTrap{Blocks: blocks, K: k} }

// Engines.
type (
	// Engine is a stepwise-evolving population.
	Engine = ga.Engine
	// GAConfig configures the sequential engines.
	GAConfig = ga.Config
	// RunOptions tunes Run.
	RunOptions = ga.RunOptions
	// Control is the caller's control over a run of any model: the
	// Context that cancels it (the run ends within one generation with
	// stop reason "cancelled" and truthful partial stats), the Trace
	// switch and the Observers. Every run entry takes one — inside
	// RunOptions for Run, as the last argument elsewhere; Control{} is an
	// unwatched, uncancellable run.
	Control = engine.Control
	// Observer receives ordered lifecycle hooks from the shared run loop
	// (OnGeneration, OnMigration, OnRestart, OnDone); pass implementations
	// through Control.Observers.
	Observer = engine.Observer
	// ObserverFuncs adapts optional functions to Observer; nil fields are
	// no-ops.
	ObserverFuncs = engine.Funcs
)

// NewGenerational returns a generational GA engine. If cfg.RNG is nil a
// stream seeded with 0 is used.
func NewGenerational(cfg GAConfig) Engine {
	if cfg.RNG == nil {
		cfg.RNG = rng.New(0)
	}
	return ga.NewGenerational(cfg)
}

// NewSteadyState returns a steady-state GA engine with replace-worst
// insertion.
func NewSteadyState(cfg GAConfig) Engine {
	if cfg.RNG == nil {
		cfg.RNG = rng.New(0)
	}
	return ga.NewSteadyState(cfg, true)
}

// NewParallelGenerational returns the shared-memory global PGA: the whole
// reproduction step (selection, variation, evaluation) runs across the
// given number of workers over one panmictic population — Bethke's and
// Grefenstette's global model. Deterministic per (seed, workers).
func NewParallelGenerational(cfg GAConfig, workers int) Engine {
	if cfg.RNG == nil {
		cfg.RNG = rng.New(0)
	}
	return ga.NewParallelGenerational(cfg, workers)
}

// Run drives an engine until the stop condition fires.
func Run(e Engine, opts RunOptions) *Result { return ga.Run(e, opts) }

// TopologyKind selects a built-in island topology.
type TopologyKind int

// Built-in topologies for IslandConfig.
const (
	// Ring is a unidirectional ring.
	Ring TopologyKind = iota
	// BiRing is a bidirectional ring.
	BiRing
	// Star is a hub-and-leaves topology.
	Star
	// Complete is fully connected.
	Complete
	// Hypercube requires a power-of-two deme count.
	Hypercube
	// Isolated has no links (no migration).
	Isolated
)

// Migration is the island migration policy (re-exported).
type Migration = migration.Policy

// Migrant selection and integration policies.
type (
	// SelectBestMigrants emigrates the deme's best.
	SelectBestMigrants = migration.SelectBest
	// SelectRandomMigrants emigrates random members.
	SelectRandomMigrants = migration.SelectRandom
	// ReplaceWorstWith replaces the worst members unconditionally.
	ReplaceWorstWith = migration.ReplaceWorst
	// ReplaceWorstIfBetter accepts only improving migrants.
	ReplaceWorstIfBetter = migration.ReplaceWorstIfBetter
)

// Fault tolerance (deme supervision; see internal/supervise).
type (
	// Resilience tunes the island supervision layer: checkpoint cadence,
	// restart budget, heartbeat deadline, backoff and the async
	// dead-letter retry bound. The zero value selects sensible defaults.
	Resilience = supervise.Config
	// FaultPlan deterministically injects panics and hangs at exact
	// (deme, generation) coordinates — the testing harness behind the
	// supervision layer.
	FaultPlan = supervise.FaultPlan
	// Fault is one scripted fault of a FaultPlan.
	Fault = supervise.Fault
	// FaultKind classifies an injected fault.
	FaultKind = supervise.FaultKind
	// DemeFailure is the typed event a supervised deme failure becomes.
	DemeFailure = supervise.DemeFailure
	// FailureKind classifies a deme failure.
	FailureKind = supervise.FailureKind
)

// Fault and failure kinds.
const (
	// FaultPanic panics inside the deme's step.
	FaultPanic = supervise.FaultPanic
	// FaultHang stalls the deme's step past the heartbeat deadline.
	FaultHang = supervise.FaultHang
	// FailurePanic is a recovered step panic.
	FailurePanic = supervise.FailurePanic
	// FailureTimeout is a missed heartbeat deadline.
	FailureTimeout = supervise.FailureTimeout
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

// IslandModel is the coarse-grained PGA (re-exported).
type IslandModel = island.Model

// IslandResult summarises an island run (re-exported).
type IslandResult = island.Result

// buildTopology materialises a TopologyKind for n demes.
func buildTopology(kind TopologyKind, n int) topology.Topology {
	switch kind {
	case BiRing:
		return topology.BiRing(n)
	case Star:
		return topology.Star(n)
	case Complete:
		return topology.Complete(n)
	case Hypercube:
		d := 0
		for 1<<uint(d) < n {
			d++
		}
		if 1<<uint(d) != n {
			panic("pga: Hypercube topology requires a power-of-two deme count")
		}
		return topology.Hypercube(d)
	case Isolated:
		return topology.Isolated(n)
	default:
		return topology.Ring(n)
	}
}

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
// schemes), cellular demes, or the hybrid model where each deme evaluates
// through its own master–slave farm (the cluster-of-SMPs pattern of the
// survey's §3.3). The factory replaces the GA field of cfg; everything
// else (topology, migration, seed, resilience) applies unchanged, and the
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
	return island.New(island.Config{
		Topology:   buildTopology(cfg.Topology, cfg.Demes),
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
	// WorkerSpec configures one farm worker.
	WorkerSpec = masterslave.WorkerSpec
)

// NewFarm creates a fault-tolerant evaluation farm.
func NewFarm(seed uint64, specs []WorkerSpec) *Farm { return masterslave.NewFarm(seed, specs) }

// UniformWorkers returns n identical fault-free workers.
func UniformWorkers(n int) []WorkerSpec { return masterslave.Uniform(n) }

// Cellular model.
type (
	// CellularConfig configures the fine-grained GA.
	CellularConfig = cellular.Config
	// UpdatePolicy selects the cell-update schedule.
	UpdatePolicy = cellular.UpdatePolicy
)

// Cellular update policies.
const (
	// SyncUpdate updates all cells from the previous grid.
	SyncUpdate = cellular.Synchronous
	// LineSweepUpdate updates in row-major order in place.
	LineSweepUpdate = cellular.LineSweep
	// NewRandomSweepUpdate uses a fresh random order per sweep.
	NewRandomSweepUpdate = cellular.NewRandomSweep
)

// NewCellular returns a cellular GA engine (usable standalone or as an
// island deme).
func NewCellular(cfg CellularConfig) Engine {
	if cfg.RNG == nil {
		cfg.RNG = rng.New(0)
	}
	return cellular.New(cfg)
}

// Hierarchical model.
type (
	// HGAConfig configures the hierarchical multi-fidelity GA.
	HGAConfig = hga.Config
	// HGAResult summarises an HGA run.
	HGAResult = hga.Result
	// MultiFidelity is a problem evaluable at several fidelity levels.
	MultiFidelity = hga.MultiFidelity
)

// NewHGA builds a hierarchical GA.
func NewHGA(cfg HGAConfig) *hga.Model { return hga.New(cfg) }

// QuantizedFidelity wraps a real-valued benchmark into a 3-level
// multi-fidelity problem.
func QuantizedFidelity(inner *problems.RealFunc) MultiFidelity { return hga.NewQuantized(inner) }

// Specialized island model (multi-objective).
type (
	// SIMConfig configures a SIM run.
	SIMConfig = sim.Config
	// SIMResult summarises a SIM run.
	SIMResult = sim.Result
	// SIMScenario is one of the seven configurations.
	SIMScenario = sim.Scenario
	// MultiObjective is a problem with several minimised objectives.
	MultiObjective = sim.MultiObjective
)

// ZDT1 returns the classic bi-objective benchmark.
func ZDT1(dim int) MultiObjective { return sim.ZDT1{Dim: dim} }

// RunSIM executes a SIM scenario under the caller's run control.
func RunSIM(cfg SIMConfig, ctl Control) *SIMResult { return sim.Run(cfg, ctl) }

// SIMScenarios lists the seven scenarios in order.
func SIMScenarios() []SIMScenario { return sim.Scenarios() }

// Checkpointing (GALOPPS-style exact save/restore; see internal/persist).
type (
	// Checkpoint is a serialisable snapshot of a population plus the RNG
	// stream driving its engine.
	Checkpoint = persist.Checkpoint
)

// CaptureCheckpoint snapshots a population and its engine stream.
func CaptureCheckpoint(pop *Population, r *RNG, generation int, evaluations int64) (*Checkpoint, error) {
	return persist.Capture(pop, r, generation, evaluations)
}

// LoadCheckpoint parses a serialised checkpoint.
func LoadCheckpoint(data []byte) (*Checkpoint, error) {
	return persist.UnmarshalCheckpoint(data)
}

// Declarative run specifications (see internal/spec and DESIGN.md §11).
// One serializable Spec names a problem, an engine, a model and a budget;
// BuildSpec materialises it into any of the runtimes above, draw-identical
// to the equivalent hand-wired construction.
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
	// SpecRunOpts tunes BuiltSpec.Run (per-generation callback, trace).
	SpecRunOpts = spec.RunOpts
	// SpecFile is one parsed config document: a single run or a sweep.
	SpecFile = spec.File
	// SpecSweep expands a base spec over axes into a deterministic run
	// matrix with per-cell derived seeds.
	SpecSweep = spec.Sweep
	// SpecError is the structured validation error a malformed spec
	// yields: one FieldError per offending field.
	SpecError = spec.Error
	// SpecFieldError locates one validation failure (field path + reason).
	SpecFieldError = spec.FieldError
)

// Spec sections, for assembling specs programmatically rather than from
// JSON.
type (
	// SpecProblem names a registry problem and its size.
	SpecProblem = spec.ProblemSpec
	// SpecEngine selects population shape and operators.
	SpecEngine = spec.EngineSpec
	// SpecOperator names one registry operator with its parameters.
	SpecOperator = spec.OperatorSpec
	// SpecGrid is the cellular grid shape.
	SpecGrid = spec.GridSpec
	// SpecIslands is the island-model section.
	SpecIslands = spec.IslandSpec
	// SpecTopology names an island topology.
	SpecTopology = spec.TopologySpec
	// SpecMigration is the migration policy section.
	SpecMigration = spec.MigrationSpec
	// SpecFault scripts one injected fault of a supervised island run.
	SpecFault = spec.FaultSpec
	// SpecFarm is the master–slave section.
	SpecFarm = spec.FarmSpec
	// SpecP2P is the gossip-overlay section.
	SpecP2P = spec.P2PSpec
	// SpecHGA is the hierarchical-model section.
	SpecHGA = spec.HGASpec
	// SpecSIM is the multi-objective SIM section.
	SpecSIM = spec.SIMSpec
	// SpecBudget is the stop-condition section.
	SpecBudget = spec.BudgetSpec
)

// ParseSpec strictly parses and validates one JSON run spec, returning
// structured field errors on malformed input (it never panics).
func ParseSpec(data []byte) (*Spec, error) { return spec.Parse(data) }

// ParseSpecFile parses a config document that is either a single run
// spec or a sweep ({"base": ..., "sweep": {...}, "replicates": N}).
func ParseSpecFile(data []byte) (*SpecFile, error) { return spec.ParseFile(data) }

// BuildSpec validates s and constructs its runtime.
func BuildSpec(s Spec) (*BuiltSpec, error) { return spec.Build(s) }

// SpecModels lists the model vocabulary a Spec accepts.
func SpecModels() []string { return spec.Models() }

// DeriveSpecSeed derives the run seed of sweep cell `cell`, replicate
// `rep`, from a base seed (cell 0 replicate 0 keeps the base verbatim).
func DeriveSpecSeed(base uint64, cell, rep int) uint64 { return spec.DeriveSeed(base, cell, rep) }

// Peer-to-peer overlay (DREAM-style; see internal/p2p).
type (
	// P2PConfig configures a gossip overlay run.
	P2PConfig = p2p.Config
	// P2PResult summarises an overlay run.
	P2PResult = p2p.Result
	// P2PNetwork is an instantiated overlay.
	P2PNetwork = p2p.Network
)

// NewP2P builds a DREAM-style peer-to-peer evolutionary overlay.
func NewP2P(cfg P2PConfig) *P2PNetwork { return p2p.New(cfg) }
