package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"pga/internal/spec"
)

// sizes fixes how much work one repetition of each workload does. The
// benchmark always runs fullSizes; the smoke test runs smokeSizes so the
// whole pipeline finishes in a few seconds.
type sizes struct {
	// full marks the published sizes: only there does bitwise-gen run
	// long enough to pass its optimum, so only there is solving checked.
	full        bool
	bitwiseGens int
	evalGens    int
	wireGens    int
	// matrix multiplies every model-matrix document's budget.
	matrix float64
	// probe multiplies how much work each layer probe does and how long
	// set-up is sampled.
	probe float64
}

var (
	fullSizes  = sizes{full: true, bitwiseGens: 2000, evalGens: 1000, wireGens: 8000, matrix: 1, probe: 1}
	smokeSizes = sizes{bitwiseGens: 12, evalGens: 6, wireGens: 40, matrix: 0.03, probe: 0.02}
)

// Shapes the long runs share with their probes and closed forms.
const (
	bitwiseBits = 1024
	evalBits    = 256
	runPop      = 200 // bitwise-gen and evalheavy-gen population
	wireBits    = 256
	wirePop     = 50
	wireIslands = 2
	wireEvery   = 2 // migration interval
	wireCount   = 4 // migrants per batch
)

// op is shorthand for a parameterless operator spec.
func op(name string) *spec.OperatorSpec { return &spec.OperatorSpec{Name: name} }

// bitwiseSpec is the bitwise-gen document: the default bit-wise
// crossover/mutation pair named explicitly, a generation budget and no
// target stop, so the run passes its optimum and keeps going.
func bitwiseSpec(seed uint64, sz sizes) spec.RunSpec {
	return spec.RunSpec{
		Name:    wlBitwise,
		Model:   spec.ModelGenerational,
		Problem: spec.ProblemSpec{Name: "onemax", Size: bitwiseBits},
		Engine:  spec.EngineSpec{Pop: runPop, Crossover: op("uniform"), Mutator: op("bitflip")},
		Budget:  spec.BudgetSpec{Generations: sz.bitwiseGens},
		Seed:    seed,
	}
}

// evalHeavySpec is the evalheavy-gen document: the same engine with
// default operators on a problem whose evaluation dominates.
func evalHeavySpec(seed uint64, sz sizes) spec.RunSpec {
	return spec.RunSpec{
		Name:    wlEvalHeavy,
		Model:   spec.ModelGenerational,
		Problem: spec.ProblemSpec{Name: "maxsat", Size: evalBits},
		Engine:  spec.EngineSpec{Pop: runPop},
		Budget:  spec.BudgetSpec{Generations: sz.evalGens},
		Seed:    seed,
	}
}

// generationalEvals is the closed-form evaluation count of a default
// generational run: the initial population, then every generation
// re-evaluates all but the single elite.
func generationalEvals(pop, gens int) int64 {
	return int64(pop) + int64(gens)*int64(pop-1)
}

// wireArgs are the pgaisland flags of island self in the two-process
// ring (everything but the rendezvous files).
func wireArgs(seed uint64, sz sizes, self int) []string {
	return []string{
		"-self", strconv.Itoa(self),
		"-listen", "127.0.0.1:0",
		"-problem", "nk", "-size", strconv.Itoa(wireBits),
		"-pop", strconv.Itoa(wirePop),
		"-gens", strconv.Itoa(sz.wireGens),
		"-interval", strconv.Itoa(wireEvery),
		"-migrants", strconv.Itoa(wireCount),
		"-topology", "ring",
		"-seed", strconv.FormatUint(seed, 10),
		"-quiet",
	}
}

// sweepDoc is the JSON shape of a sweep document (spec.ParseFile's
// input).
type sweepDoc struct {
	Name  string           `json:"name"`
	Base  spec.RunSpec     `json:"base"`
	Sweep map[string][]any `json:"sweep"`
}

// ops lists parameterless operator-spec axis values.
func ops(names ...string) []any {
	out := make([]any, len(names))
	for i, n := range names {
		out[i] = map[string]any{"name": n}
	}
	return out
}

// vals boxes axis values.
func vals[T any](vs ...T) []any {
	out := make([]any, len(vs))
	for i, v := range vs {
		out[i] = v
	}
	return out
}

// islandFamilies is the "islands" axis of the islands document: the
// sequential stepper, the sync-parallel stepper and the supervised
// stepper, each over four topologies.
func islandFamilies() []any {
	var out []any
	for _, fam := range []struct{ mode, resilience string }{
		{"sequential", ""}, {"parallel", ""}, {"parallel", "default"},
	} {
		for _, topo := range []string{"ring", "biring", "star", "complete"} {
			sec := map[string]any{
				"demes":     4,
				"topology":  topo,
				"mode":      fam.mode,
				"migration": map[string]any{"interval": 4, "count": 2},
			}
			if fam.resilience != "" {
				sec["resilience"] = fam.resilience
			}
			out = append(out, sec)
		}
	}
	return out
}

// matrixDocs generates the nine model-matrix sweep documents, one per
// spec model string, in spec.Models() order. Budgets were sized so the
// documents take roughly equal shares of ~3 s in total and none more
// than a quarter.
func matrixDocs(seed uint64, sz sizes) []sweepDoc {
	gens := func(n int) spec.BudgetSpec {
		return spec.BudgetSpec{Generations: int(math.Max(1, math.Round(float64(n)*sz.matrix)))}
	}
	cost := func(c float64) float64 { return math.Max(20, c*sz.matrix) }
	return []sweepDoc{
		{
			Name: spec.ModelGenerational,
			Base: spec.RunSpec{
				Model:   spec.ModelGenerational,
				Problem: spec.ProblemSpec{Name: "rastrigin", Size: 8},
				Engine:  spec.EngineSpec{Pop: 40, Crossover: op("sbx"), Mutator: op("polynomial")},
				Budget:  gens(360), Seed: seed,
			},
			Sweep: map[string][]any{
				"engine.pop":      vals(20, 40, 60),
				"problem.size":    vals(8, 16),
				"engine.selector": ops("tournament", "rank", "roulette", "truncation", "random"),
			},
		},
		{
			Name: spec.ModelSteadyState,
			Base: spec.RunSpec{
				Model:   spec.ModelSteadyState,
				Problem: spec.ProblemSpec{Name: "qap", Size: 12},
				Engine:  spec.EngineSpec{Pop: 30, Crossover: op("ox"), Mutator: op("inversion")},
				Budget:  gens(750), Seed: seed,
			},
			Sweep: map[string][]any{
				"engine.pop":       vals(20, 40),
				"engine.replace":   vals("worst", "random"),
				"engine.crossover": ops("ox", "pmx", "cx", "erx"),
				"engine.mutator":   ops("inversion", "swap"),
			},
		},
		{
			Name: spec.ModelParallel,
			Base: spec.RunSpec{
				Model:   spec.ModelParallel,
				Problem: spec.ProblemSpec{Name: "onemax", Size: matrixBits},
				Engine:  spec.EngineSpec{Pop: matrixPop, Workers: 2, Crossover: op("uniformword"), Mutator: op("blockflip")},
				Budget:  gens(650), Seed: seed,
			},
			Sweep: map[string][]any{
				"engine.workers":   vals(1, 2),
				"problem.size":     vals(192, matrixBits, 320),
				"engine.crossover": []any{map[string]any{"name": "uniformword"}, map[string]any{"name": "kpointword", "params": map[string]any{"k": 2}}},
				"engine.mutator":   []any{map[string]any{"name": "blockflip"}, map[string]any{"name": "blockflip", "params": map[string]any{"k": 4}}},
			},
		},
		{
			Name: spec.ModelMasterSlave,
			Base: spec.RunSpec{
				Model:   spec.ModelMasterSlave,
				Problem: spec.ProblemSpec{Name: "knapsack", Size: 64},
				Engine:  spec.EngineSpec{Pop: 40},
				Farm:    &spec.FarmSpec{Workers: 2},
				Budget:  gens(320), Seed: seed,
			},
			Sweep: map[string][]any{
				"farm.workers": vals(1, 2, 4),
				"problem.name": vals("knapsack", "trap", "royalroad", "subsetsum"),
				"engine.pop":   vals(30, 50),
			},
		},
		{
			Name: spec.ModelCellular,
			Base: spec.RunSpec{
				Model:   spec.ModelCellular,
				Problem: spec.ProblemSpec{Name: "mmdp", Size: 48},
				Engine:  spec.EngineSpec{Grid: &spec.GridSpec{Rows: 6, Cols: 6}},
				Budget:  gens(320), Seed: seed,
			},
			Sweep: map[string][]any{
				"engine.grid.update":       vals("sync", "ls", "frs", "nrs", "uc"),
				"engine.grid.neighborhood": vals("l5", "c9", "l9"),
				"engine.grid.rows":         vals(5, 8),
			},
		},
		{
			Name: spec.ModelIslands,
			Base: spec.RunSpec{
				Model:   spec.ModelIslands,
				Problem: spec.ProblemSpec{Name: "ppeaks", Size: 64},
				Engine:  spec.EngineSpec{Pop: 16},
				Budget:  gens(240), Seed: seed,
			},
			Sweep: map[string][]any{
				"islands":                  islandFamilies(),
				"islands.migration.select": vals("best", "random"),
				"engine.type":              vals("generational", "steadystate"),
			},
		},
		{
			Name: spec.ModelP2P,
			Base: spec.RunSpec{
				Model:   spec.ModelP2P,
				Problem: spec.ProblemSpec{Name: "nk", Size: 64},
				Engine:  spec.EngineSpec{Pop: 12},
				P2P:     &spec.P2PSpec{Peers: 8, Churn: 0.05},
				Budget:  gens(100), Seed: seed,
			},
			Sweep: map[string][]any{
				"p2p.churn":        vals(0.02, 0.05, 0.1),
				"p2p.peers":        vals(6, 8),
				"p2p.gossip_every": vals(2, 5),
				"engine.type":      vals("generational", "steadystate"),
			},
		},
		{
			Name: spec.ModelHGA,
			Base: spec.RunSpec{
				Model:   spec.ModelHGA,
				Problem: spec.ProblemSpec{Name: "sphere", Size: 6},
				Engine:  spec.EngineSpec{Pop: 12},
				Budget:  spec.BudgetSpec{Cost: cost(12000)}, Seed: seed,
			},
			Sweep: map[string][]any{
				"problem.name": vals("sphere", "rastrigin", "ackley"),
				"hga.interval": vals(3, 5),
				"budget.cost":  vals(cost(9000), cost(12000), cost(15000)),
			},
		},
		{
			Name: spec.ModelSIM,
			Base: spec.RunSpec{
				Model:   spec.ModelSIM,
				Problem: spec.ProblemSpec{Name: "zdt1", Size: 8},
				SIM:     &spec.SIMSpec{Scenario: 1, DemeSize: 16},
				Budget:  gens(560), Seed: seed,
			},
			Sweep: map[string][]any{
				"sim.scenario":  vals(1, 2, 3, 4, 5, 6, 7),
				"problem.name":  vals("zdt1", "schaffer"),
				"sim.deme_size": vals(12, 16),
			},
		},
	}
}

// Probe shape of model-matrix: its parallel document's base cell, the
// word-operator family on a bit string.
const (
	matrixBits = 256
	matrixPop  = 64
)

// document is one generated input file of a pgarun workload.
type document struct {
	// Name is the file stem (the spec model string for model-matrix).
	Name string
	// JSON is the file content handed to pgarun -config.
	JSON []byte
}

// pgarunDocs generates the spec documents of a pgarun workload from
// the seed: the program under test receives nothing else.
func pgarunDocs(wl string, seed uint64, sz sizes) ([]document, error) {
	type named struct {
		name string
		v    any
	}
	var inputs []named
	switch wl {
	case wlBitwise:
		inputs = []named{{wl, bitwiseSpec(seed, sz)}}
	case wlEvalHeavy:
		inputs = []named{{wl, evalHeavySpec(seed, sz)}}
	case wlMatrix:
		for _, d := range matrixDocs(seed, sz) {
			inputs = append(inputs, named{d.Name, d})
		}
	default:
		return nil, fmt.Errorf("workload %q has no spec documents", wl)
	}
	docs := make([]document, 0, len(inputs))
	for _, in := range inputs {
		data, err := json.MarshalIndent(in.v, "", "  ")
		if err != nil {
			return nil, fmt.Errorf("generate %s/%s: %w", wl, in.name, err)
		}
		docs = append(docs, document{Name: in.name, JSON: append(data, '\n')})
	}
	return docs, nil
}
