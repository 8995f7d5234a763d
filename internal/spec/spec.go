// Package spec is the declarative run-specification layer: one
// serialisable RunSpec describes a run of any of the library's runtimes
// — problem, operators, model and model parameters, resilience plan,
// budget, seed — and Build constructs the runtime through the problem
// and operator registries. Every construction site (cmd/pgarun,
// cmd/pgaisland, cmd/pgabench, internal/exp, the examples) builds
// through this package instead of hand-wiring its own switch
// statements, and the same JSON document is the job contract a future
// pgad daemon will accept over the wire.
//
// The package is data plus one pass over it. vocab.go declares each
// closed vocabulary of the schema once, as an ordered name → value
// table; model.go declares one entry per model; resolve.go walks them
// once per spec, applying every default, constructing the problem and
// collecting every field error, and leaves a Plan that Build assembles
// the runtime from without looking anything up again. Validate is that
// pass with the plan dropped — so what validates builds.
//
// Contracts:
//
//   - Strict parsing: unknown fields, malformed values and invalid
//     combinations are rejected with structured *Error values (field
//     path + reason), never a panic and never an opaque string
//     (FuzzParse, FuzzValidateBuild).
//   - Draw-identity: a spec-built runtime consumes exactly the same RNG
//     draws as the equivalent hand-wired construction. Engine-level
//     zero values pass through to the runtime configs, whose own
//     defaulting (ga.Config.withDefaults etc.) stays the single source
//     of truth; the spec layer adds defaults only where the runtimes
//     have none (canonical per-genome-class operators, model selection,
//     budget). internal/equiv proves this by replaying golden-trace
//     scenarios through Build.
//   - Determinism: the package reads no wall clock and draws no random
//     numbers beyond a throwaway genome probe; reports serialise
//     without timing fields, so a sweep run twice yields byte-identical
//     JSON.
//
// See DESIGN.md §11 for the schema, the defaulting rules and the
// seed-derivation scheme for sweep cells.
package spec

import (
	"bytes"
	"encoding/json"
)

// RunSpec is one complete run description. The zero value of every
// optional field selects the documented default; only Model and Problem
// are required. Exactly the model-specific section matching Model may
// be set (Islands for "islands", Farm for "masterslave", and so on) —
// a section for a different model is a validation error, so a spec
// cannot silently carry dead configuration.
type RunSpec struct {
	// Version is the schema version; 0 and 1 both mean version 1.
	Version int `json:"version,omitempty"`
	// Name is an optional label echoed into reports.
	Name string `json:"name,omitempty"`
	// Model selects the runtime; see Models.
	Model string `json:"model"`
	// Problem selects and sizes the benchmark.
	Problem ProblemSpec `json:"problem"`
	// Engine configures the evolution engine — the top-level engine of
	// the panmictic models, the per-deme engine of islands/p2p, the
	// per-deme operators of hga.
	Engine EngineSpec `json:"engine"`
	// Islands configures the island model (model "islands" only).
	Islands *IslandSpec `json:"islands,omitempty"`
	// Farm configures the evaluation farm (model "masterslave" only).
	Farm *FarmSpec `json:"farm,omitempty"`
	// P2P configures the gossip overlay (model "p2p" only).
	P2P *P2PSpec `json:"p2p,omitempty"`
	// HGA configures the hierarchy (model "hga" only).
	HGA *HGASpec `json:"hga,omitempty"`
	// SIM configures the specialized island model (model "sim" only).
	SIM *SIMSpec `json:"sim,omitempty"`
	// Budget sets the stop conditions.
	Budget BudgetSpec `json:"budget"`
	// Seed seeds the whole run; 0 is a valid seed.
	Seed uint64 `json:"seed"`
	// Replicates repeats the run with derived seeds; default 1.
	Replicates int `json:"replicates,omitempty"`
}

// ProblemSpec selects a benchmark problem from the registry
// (internal/problems; for model "sim" the multi-objective vocabulary is
// "zdt1" and "schaffer" instead).
type ProblemSpec struct {
	// Name is the registry key (problems.Keys).
	Name string `json:"name"`
	// Size is the problem size (bits / dimensions / items). Required
	// except for fixed-size problems (foxholes, schaffer).
	Size int `json:"size,omitempty"`
	// Seed overrides the instance seed of seeded problems (nk, ppeaks,
	// qap, ...); nil ties the instance to the run seed.
	Seed *uint64 `json:"seed,omitempty"`
}

// OperatorSpec names an operator from the vocabulary
// (operators.SpecKeys) with optional numeric parameters. The name
// "none" explicitly disables the crossover or mutation slot.
type OperatorSpec struct {
	Name   string             `json:"name"`
	Params map[string]float64 `json:"params,omitempty"`
}

// EngineSpec configures a sequential evolution engine. Zero values pass
// through to ga.Config / cellular.Config, whose defaulting is
// authoritative — except the operators, where the spec layer supplies
// the canonical per-genome-class pair when a slot is omitted (see
// DESIGN §11).
type EngineSpec struct {
	// Type selects the deme engine of islands/p2p runs: "generational"
	// (default), "steadystate" or "cellular". Must be empty for the
	// panmictic models, whose Model string already names the engine.
	Type string `json:"type,omitempty"`
	// Pop is the population size (per deme for islands/p2p/hga);
	// engine default 100.
	Pop int `json:"pop,omitempty"`
	// Selector, Crossover, Mutator name the operators. Omitted slots
	// default to Tournament(2) selection and the canonical
	// crossover/mutator of the problem's genome class; "none" disables
	// a slot.
	Selector  *OperatorSpec `json:"selector,omitempty"`
	Crossover *OperatorSpec `json:"crossover,omitempty"`
	Mutator   *OperatorSpec `json:"mutator,omitempty"`
	// CrossoverRate is the recombination probability; engine default 0.9.
	CrossoverRate float64 `json:"crossover_rate,omitempty"`
	// GenGap is the generational-gap fraction (generational engines
	// only); engine default 1.0.
	GenGap float64 `json:"gen_gap,omitempty"`
	// Elitism is the elite count (generational engines only); engine
	// default 1, -1 disables.
	Elitism int `json:"elitism,omitempty"`
	// Replace is the steady-state replacement policy: "worst" (default)
	// or "random". Steady-state engines only.
	Replace string `json:"replace,omitempty"`
	// Workers is the reproduction worker count of model "parallel";
	// default 4.
	Workers int `json:"workers,omitempty"`
	// Grid shapes a cellular engine; cellular engines only.
	Grid *GridSpec `json:"grid,omitempty"`
}

// GridSpec shapes a cellular engine's toroidal grid.
type GridSpec struct {
	// Rows, Cols give the grid shape; engine default 10×10.
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// Update is the cell-update schedule: "sync" (default), "ls",
	// "frs", "nrs" or "uc".
	Update string `json:"update,omitempty"`
	// Neighborhood is the mating neighbourhood: "l5" (default), "c9" or
	// "l9".
	Neighborhood string `json:"neighborhood,omitempty"`
}

// TopologySpec selects an island topology. In JSON it accepts a plain
// string shorthand ("ring") as well as the object form
// ({"kind": "torus", "rows": 2, "cols": 4}).
type TopologySpec struct {
	// Kind is "ring" (default), "biring", "star", "complete",
	// "hypercube", "isolated", "grid", "torus" or "random".
	Kind string `json:"kind,omitempty"`
	// Rows, Cols shape the "grid" and "torus" kinds (their product must
	// equal the deme count).
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// Degree is the "random" kind's regular degree; default 3.
	Degree int `json:"degree,omitempty"`
	// Seed seeds the "random" kind's wiring; 0 ties it to the run seed.
	Seed uint64 `json:"seed,omitempty"`
}

// UnmarshalJSON accepts both the string shorthand and the object form.
func (t *TopologySpec) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		*t = TopologySpec{Kind: s}
		return nil
	}
	type plain TopologySpec // drop the method to avoid recursion
	var p plain
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return err
	}
	*t = TopologySpec(p)
	return nil
}

// MigrationSpec configures island migration. Zero values pass through
// to migration.Policy.WithDefaults (count 1, best→worst, buffer 4).
type MigrationSpec struct {
	// Interval is the generations between exchanges; 0 disables
	// migration (isolated demes).
	Interval int `json:"interval,omitempty"`
	// Count is the migrants per link per exchange; policy default 1.
	Count int `json:"count,omitempty"`
	// Select picks emigrants: "best" (default), "random" or
	// "tournament".
	Select string `json:"select,omitempty"`
	// Replace integrates immigrants: "worst" (default),
	// "worst-if-better" or "random".
	Replace string `json:"replace,omitempty"`
	// Async selects buffered asynchronous exchange in parallel mode;
	// the default is synchronous (deterministic).
	Async bool `json:"async,omitempty"`
	// Buffer is the async channel capacity per link; policy default 4.
	Buffer int `json:"buffer,omitempty"`
}

// FaultSpec scripts one deterministic fault of a supervised island run.
type FaultSpec struct {
	// Kind is "panic" or "hang".
	Kind string `json:"kind"`
	// Deme and Gen are the injection coordinates.
	Deme int `json:"deme"`
	Gen  int `json:"gen"`
	// Times repeats a panic on consecutive attempts; default 1.
	Times int `json:"times,omitempty"`
	// HangMS is the hang duration in milliseconds ("hang" only);
	// default 50.
	HangMS int `json:"hang_ms,omitempty"`
}

// IslandSpec configures the island model.
type IslandSpec struct {
	// Demes is the island count; default 8.
	Demes int `json:"demes,omitempty"`
	// Topology is the inter-deme graph; default ring.
	Topology TopologySpec `json:"topology"`
	// Migration is the migration policy.
	Migration MigrationSpec `json:"migration"`
	// Mode is "sequential" (default: lockstep, fully deterministic) or
	// "parallel" (goroutine per deme).
	Mode string `json:"mode,omitempty"`
	// RewireEvery rewires a dynamic ("random") topology every N
	// migration epochs; 0 never rewires.
	RewireEvery int `json:"rewire_every,omitempty"`
	// Resilience enables deme supervision in parallel mode: "" or
	// "none" (unsupervised), "default" (checkpoint every 5, 3
	// restarts), "eager" (checkpoint every generation, 5 restarts).
	Resilience string `json:"resilience,omitempty"`
	// Faults injects deterministic failures into a supervised run.
	Faults []FaultSpec `json:"faults,omitempty"`
}

// FarmSpec configures the master–slave evaluation farm.
type FarmSpec struct {
	// Workers is the slave count; default 4.
	Workers int `json:"workers,omitempty"`
}

// P2PSpec configures the gossip overlay. Zero values pass through to
// p2p.Config (16 peers, view 4, gossip every 5, rejoin 0.5, floor 2).
type P2PSpec struct {
	Peers       int     `json:"peers,omitempty"`
	ViewSize    int     `json:"view,omitempty"`
	GossipEvery int     `json:"gossip_every,omitempty"`
	Churn       float64 `json:"churn,omitempty"`
	Rejoin      float64 `json:"rejoin,omitempty"`
	MinPeers    int     `json:"min_peers,omitempty"`
}

// HGASpec configures the hierarchical multi-fidelity model. Zero values
// pass through to hga.Config (layers {1,2,4}, interval 5).
type HGASpec struct {
	// Layers[l] is the deme count of layer l (layer 0 is the precise
	// top layer).
	Layers []int `json:"layers,omitempty"`
	// Levels maps layer → fidelity level; default min(layer, levels-1).
	Levels []int `json:"levels,omitempty"`
	// Interval is the generations between promotions.
	Interval int `json:"interval,omitempty"`
}

// SIMSpec configures the specialized island model. Zero values pass
// through to sim.Config (deme size 40, interval 5, archive 100).
type SIMSpec struct {
	// Scenario is the configuration number, 1–7; default 1.
	Scenario int `json:"scenario,omitempty"`
	// DemeSize is the population per island.
	DemeSize int `json:"deme_size,omitempty"`
	// Interval is the migration interval.
	Interval int `json:"interval,omitempty"`
	// ArchiveCap bounds the Pareto archive.
	ArchiveCap int `json:"archive_cap,omitempty"`
	// HVRef is the hypervolume reference point [f1, f2].
	HVRef []float64 `json:"hv_ref,omitempty"`
}

// BudgetSpec sets the stop conditions. With everything zero the run
// stops after the model's default generation budget (300; 60 for sim).
// Multiple set conditions compose as any-of.
type BudgetSpec struct {
	// Generations caps the generation count.
	Generations int `json:"generations,omitempty"`
	// Evaluations caps the fitness-evaluation count.
	Evaluations int64 `json:"evaluations,omitempty"`
	// Target stops at a fitness threshold (direction-aware).
	Target *float64 `json:"target,omitempty"`
	// TargetOptimum stops at the problem's known optimum.
	TargetOptimum bool `json:"target_optimum,omitempty"`
	// Stagnation stops after N non-improving generations.
	Stagnation int `json:"stagnation,omitempty"`
	// Cost is the evaluation-cost budget of model "hga" (precise-
	// evaluation units); default 2000.
	Cost float64 `json:"cost,omitempty"`
}

// Parse strictly decodes one RunSpec document and validates it. Unknown
// fields, type mismatches and semantic violations all come back as a
// structured *Error; Parse never panics on any input.
func Parse(data []byte) (*RunSpec, error) {
	var s RunSpec
	if err := strictUnmarshal(data, &s); err != nil {
		return nil, err
	}
	if _, verr := resolve(s); verr != nil {
		return nil, verr
	}
	return &s, nil
}

// strictUnmarshal decodes JSON rejecting unknown fields, converting
// decoder errors into structured form.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return asError(decodeError(err))
	}
	// Trailing garbage after the document is a malformed config too.
	if dec.More() {
		return errf("(document)", "trailing data after JSON document")
	}
	return nil
}

// decodeError converts an encoding/json error into a located *Error.
func decodeError(err error) *Error {
	if ute, ok := err.(*json.UnmarshalTypeError); ok {
		path := ute.Field
		if path == "" {
			path = "(document)"
		}
		return errf(path, "cannot decode %s into %s", ute.Value, ute.Type)
	}
	return errf("(document)", "%v", err)
}

// JSON serialises the spec in its canonical indented form.
func (s *RunSpec) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
