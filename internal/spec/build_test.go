package spec

import (
	"encoding/json"
	"slices"
	"testing"

	"pga/internal/engine"
	"pga/internal/ga"
	"pga/internal/operators"
	"pga/internal/p2p"
	"pga/internal/problems"
	"pga/internal/rng"
)

// smokeSpecs is one small runnable spec per model string.
var smokeSpecs = map[string]string{
	ModelGenerational: `{"model":"generational","problem":{"name":"onemax","size":16},"engine":{"pop":10},"budget":{"generations":4},"seed":1}`,
	ModelSteadyState:  `{"model":"steadystate","problem":{"name":"onemax","size":16},"engine":{"pop":10,"replace":"random"},"budget":{"generations":4},"seed":2}`,
	ModelParallel:     `{"model":"parallel","problem":{"name":"onemax","size":16},"engine":{"pop":10,"workers":2},"budget":{"generations":4},"seed":3}`,
	ModelMasterSlave:  `{"model":"masterslave","problem":{"name":"onemax","size":16},"engine":{"pop":10},"farm":{"workers":2},"budget":{"generations":4},"seed":4}`,
	ModelCellular:     `{"model":"cellular","problem":{"name":"onemax","size":16},"engine":{"grid":{"rows":3,"cols":3}},"budget":{"generations":4},"seed":5}`,
	ModelIslands:      `{"model":"islands","problem":{"name":"onemax","size":16},"engine":{"pop":8},"islands":{"demes":3,"migration":{"interval":2}},"budget":{"generations":4},"seed":6}`,
	ModelP2P:          `{"model":"p2p","problem":{"name":"onemax","size":16},"engine":{"pop":6},"p2p":{"peers":4,"view":2},"budget":{"generations":4},"seed":7}`,
	ModelHGA:          `{"model":"hga","problem":{"name":"sphere","size":4},"engine":{"pop":10},"hga":{"layers":[1,2]},"budget":{"cost":200},"seed":8}`,
	ModelSIM:          `{"model":"sim","problem":{"name":"zdt1","size":5},"sim":{"deme_size":10},"budget":{"generations":3},"seed":9}`,
}

// TestBuildAllModels builds and runs every model from a spec and checks
// the report carries the shared accounting plus the model's extension
// fields, and that running the same spec twice gives byte-identical
// report JSON.
func TestBuildAllModels(t *testing.T) {
	for _, model := range Models() {
		t.Run(model, func(t *testing.T) {
			doc := smokeSpecs[model]
			runOnce := func() []byte {
				s := mustParse(t, doc)
				b, err := Build(*s)
				if err != nil {
					t.Fatalf("Build: %v", err)
				}
				rep := b.Run(RunOpts{})
				if rep.Model != model {
					t.Errorf("report model %q, want %q", rep.Model, model)
				}
				if rep.Evaluations <= 0 {
					t.Errorf("report has no evaluations: %+v", rep)
				}
				out, merr := json.Marshal(rep)
				if merr != nil {
					t.Fatalf("marshal report: %v", merr)
				}
				return out
			}
			// Parallel-mode runtimes are exempt from byte-identity; every
			// smoke spec here runs a deterministic mode.
			first, second := runOnce(), runOnce()
			if string(first) != string(second) {
				t.Errorf("same spec, different reports:\n%s\n%s", first, second)
			}
		})
	}
}

// TestBuiltHandles checks Build sets exactly the handle its model needs.
func TestBuiltHandles(t *testing.T) {
	for _, model := range Models() {
		s := mustParse(t, smokeSpecs[model])
		b, err := Build(*s)
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		engine := b.Engine != nil
		switch model {
		case ModelGenerational, ModelSteadyState, ModelParallel, ModelCellular:
			if !engine || b.Islands != nil || b.P2P != nil || b.HGA != nil || b.SIMConfig != nil {
				t.Errorf("%s: wrong handles: %+v", model, b)
			}
		case ModelMasterSlave:
			if !engine || b.Farm == nil {
				t.Errorf("%s: engine=%v farm=%v", model, engine, b.Farm != nil)
			}
		case ModelIslands:
			if engine || b.Islands == nil {
				t.Errorf("%s: engine=%v islands=%v", model, engine, b.Islands != nil)
			}
		case ModelP2P:
			if engine || b.P2P == nil {
				t.Errorf("%s: engine=%v p2p=%v", model, engine, b.P2P != nil)
			}
		case ModelHGA:
			if engine || b.HGA == nil {
				t.Errorf("%s: engine=%v hga=%v", model, engine, b.HGA != nil)
			}
		case ModelSIM:
			if engine || b.SIMConfig == nil {
				t.Errorf("%s: engine=%v sim=%v", model, engine, b.SIMConfig != nil)
			}
		}
	}
}

// TestRegistryCompletenessProblems exercises every model × every
// registered problem key: each combination either builds or is rejected
// with a structured error — never a panic, never an opaque failure.
func TestRegistryCompletenessProblems(t *testing.T) {
	// Size 12 is at or above every registered minimum.
	keys := append([]string{}, problems.Keys()...)
	simKeys := []string{"zdt1", "schaffer"}
	for _, model := range Models() {
		for _, key := range append(keys, simKeys...) {
			t.Run(model+"/"+key, func(t *testing.T) {
				s := RunSpec{
					Model:   model,
					Problem: ProblemSpec{Name: key, Size: 12}, // fixed-size problems ignore it
					Seed:    1,
				}
				// Give each model its minimal section so a rejection is
				// about the problem, not a missing knob.
				switch model {
				case ModelHGA:
					s.Budget = BudgetSpec{Cost: 50}
				default:
					s.Budget = BudgetSpec{Generations: 1}
				}
				switch model {
				case ModelCellular:
					s.Engine = EngineSpec{Grid: &GridSpec{Rows: 2, Cols: 2}}
				case ModelSIM:
					// engine must stay zero
				default:
					if model != ModelCellular {
						s.Engine = EngineSpec{Pop: 4}
					}
				}
				b, err := Build(s)
				if err != nil {
					se, ok := err.(*Error)
					if !ok || len(se.Fields) == 0 {
						t.Fatalf("rejection is not structured: %T %v", err, err)
					}
					// The rejection must be about the problem choice.
					if !hasPath(fieldPaths(t, err), "problem.name") && !hasPath(fieldPaths(t, err), "problem.size") {
						t.Errorf("unexpected rejection for %s/%s: %v", model, key, err)
					}
					return
				}
				if b == nil {
					t.Fatal("nil Built without error")
				}
				// Accepted combinations must agree with the vocabulary:
				// sim accepts only the multi-objective names, hga only the
				// real-valued benchmarks, everything else only registry keys.
				switch model {
				case ModelSIM:
					if _, ok := simProblems.find(key); !ok {
						t.Errorf("sim accepted non-sim problem %q", key)
					}
				default:
					if _, lerr := problems.Lookup(key); lerr != nil {
						t.Errorf("%s accepted unregistered problem %q", model, key)
					}
					if _, real := b.Problem.(*problems.RealFunc); model == ModelHGA && !real {
						t.Errorf("hga accepted non-real problem %q", key)
					}
				}
			})
		}
	}
}

// TestRegistryCompletenessOperators exercises every operator key in
// every slot of its kind against one problem per genome class: build or
// structured rejection, driven purely by the declared vocabulary.
func TestRegistryCompletenessOperators(t *testing.T) {
	// No registered problem uses an int-vector genome, so the classes
	// under test are the three the registry can reach.
	classProblems := map[string]ProblemSpec{
		"bits": {Name: "onemax", Size: 12},
		"real": {Name: "sphere", Size: 4},
		"perm": {Name: "qap", Size: 6},
	}
	slotFor := map[string]func(op *OperatorSpec) EngineSpec{
		operators.KindSelector:  func(op *OperatorSpec) EngineSpec { return EngineSpec{Pop: 4, Selector: op} },
		operators.KindCrossover: func(op *OperatorSpec) EngineSpec { return EngineSpec{Pop: 4, Crossover: op} },
		operators.KindMutator:   func(op *OperatorSpec) EngineSpec { return EngineSpec{Pop: 4, Mutator: op} },
	}
	for _, kind := range []string{operators.KindSelector, operators.KindCrossover, operators.KindMutator} {
		for _, key := range operators.SpecKeys(kind) {
			entry, ok := operators.LookupSpec(key)
			if !ok {
				t.Fatalf("SpecKeys lists %q but LookupSpec misses it", key)
			}
			for class, ps := range classProblems {
				t.Run(kind+"/"+key+"/"+class, func(t *testing.T) {
					s := RunSpec{
						Model:   ModelGenerational,
						Problem: ps,
						Engine:  slotFor[kind](&OperatorSpec{Name: key}),
						Budget:  BudgetSpec{Generations: 1},
						Seed:    1,
					}
					_, err := Build(s)
					compatible := len(entry.Genomes) == 0 || slices.Contains(entry.Genomes, class)
					if compatible && err != nil {
						t.Errorf("compatible operator rejected: %v", err)
					}
					if !compatible {
						if err == nil {
							t.Errorf("operator %q accepted for class %q outside its vocabulary %v", key, class, entry.Genomes)
						} else if _, ok := err.(*Error); !ok {
							t.Errorf("rejection is not structured: %T", err)
						}
					}
				})
			}
		}
	}
}

// TestStopReasonParity checks the single-condition unwrap: a budget with
// only a generation cap must stop with MaxGenerations' own reason, not
// an any-of wrapper's.
func TestStopReasonParity(t *testing.T) {
	s := mustParse(t, `{"model":"generational","problem":{"name":"onemax","size":8},"engine":{"pop":6},"budget":{"generations":3},"seed":1}`)
	b, err := Build(*s)
	if err != nil {
		t.Fatal(err)
	}
	rep := b.Run(RunOpts{})
	if rep.Generations != 3 {
		t.Errorf("ran %d generations, want 3", rep.Generations)
	}
	if rep.StopReason == "" {
		t.Error("no stop reason recorded")
	}
}

// TestP2PReportsMessages: a p2p report's messages is the migrant count
// of the same overlay built by hand.
func TestP2PReportsMessages(t *testing.T) {
	s := mustParse(t, `{"model":"p2p","problem":{"name":"onemax","size":32},"engine":{"pop":8},`+
		`"p2p":{"peers":6,"churn":0.05},"budget":{"generations":30},"seed":11}`)
	b, err := Build(*s)
	if err != nil {
		t.Fatal(err)
	}
	rep := b.Run(RunOpts{})
	prob := problems.OneMax{N: 32}
	res := p2p.New(p2p.Config{
		Problem: prob, Peers: 6, ChurnRate: 0.05, Seed: 11,
		NewEngine: func(_ int, r *rng.Source) ga.Engine {
			return ga.NewGenerational(ga.Config{Problem: prob, PopSize: 8,
				Crossover: operators.Uniform{}, Mutator: operators.BitFlip{}, RNG: r})
		},
	}).Run(30, engine.Control{})
	if res.Messages == 0 || rep.Messages != res.Messages || rep.Evaluations != res.Evaluations {
		t.Errorf("spec run: %d messages, %d evaluations; hand-built: %d, %d",
			rep.Messages, rep.Evaluations, res.Messages, res.Evaluations)
	}
}

// TestBuildRejectsInvalid checks Build re-validates rather than
// trusting its caller (hand-constructed RunSpec values).
func TestBuildRejectsInvalid(t *testing.T) {
	_, err := Build(RunSpec{Model: "nope", Problem: ProblemSpec{Name: "onemax", Size: 8}})
	if err == nil {
		t.Fatal("Build accepted unknown model")
	}
	if _, ok := err.(*Error); !ok {
		t.Fatalf("Build error is %T, want *spec.Error", err)
	}
}
