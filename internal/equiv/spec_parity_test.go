package equiv

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"pga/internal/core"
	"pga/internal/engine"
	"pga/internal/spec"
)

// specScenarios maps golden-trace scenario names to the RunSpec document
// that must rebuild the identical runtime. TestSpecBuildParity replays
// each through spec.Build and requires the trajectory to be bit-for-bit
// identical to the pinned golden trace — the draw-identity proof of the
// spec layer: going through Parse/Validate/Build consumes exactly the
// same RNG draws as the hand-wired construction in scenarios_test.go.
var specScenarios = map[string]string{
	"generational/onemax-1point-tournament": `{
		"model": "generational",
		"problem": {"name": "onemax", "size": 64},
		"engine": {
			"pop": 40,
			"selector": {"name": "tournament", "params": {"k": 2}},
			"crossover": {"name": "onepoint"},
			"mutator": {"name": "bitflip"}
		},
		"seed": 11
	}`,
	"generational/onemax-uniform-gap-elitism": `{
		"model": "generational",
		"problem": {"name": "onemax", "size": 64},
		"engine": {
			"pop": 41,
			"selector": {"name": "tournament", "params": {"k": 3}},
			"crossover": {"name": "uniform"},
			"mutator": {"name": "bitflip"},
			"gen_gap": 0.5,
			"elitism": 4
		},
		"seed": 12
	}`,
	"generational/qap-pmx-swap": `{
		"model": "generational",
		"problem": {"name": "qap", "size": 12, "seed": 7},
		"engine": {
			"pop": 30,
			"selector": {"name": "tournament", "params": {"k": 2}},
			"crossover": {"name": "pmx"},
			"mutator": {"name": "swap"}
		},
		"seed": 18
	}`,
	"steadystate/onemax-worst": `{
		"model": "steadystate",
		"problem": {"name": "onemax", "size": 64},
		"engine": {
			"pop": 40,
			"selector": {"name": "tournament", "params": {"k": 2}},
			"crossover": {"name": "uniform"},
			"mutator": {"name": "bitflip"}
		},
		"seed": 21
	}`,
	"steadystate/onemax-random": `{
		"model": "steadystate",
		"problem": {"name": "onemax", "size": 64},
		"engine": {
			"pop": 40,
			"selector": {"name": "roulette"},
			"crossover": {"name": "onepoint"},
			"mutator": {"name": "bitflip"},
			"replace": "random"
		},
		"seed": 22
	}`,
	"parallel/onemax-4workers": `{
		"model": "parallel",
		"problem": {"name": "onemax", "size": 64},
		"engine": {
			"pop": 40,
			"selector": {"name": "tournament", "params": {"k": 2}},
			"crossover": {"name": "uniform"},
			"mutator": {"name": "bitflip"},
			"workers": 4
		},
		"seed": 24
	}`,
	"cellular/onemax-ls-C9": `{
		"model": "cellular",
		"problem": {"name": "onemax", "size": 48},
		"engine": {
			"crossover": {"name": "uniform"},
			"mutator": {"name": "bitflip"},
			"grid": {"rows": 6, "cols": 6, "update": "ls", "neighborhood": "c9"}
		},
		"seed": 32
	}`,
	"islands/sequential-ring-generational": `{
		"model": "islands",
		"problem": {"name": "onemax", "size": 64},
		"engine": {
			"pop": 20,
			"selector": {"name": "tournament", "params": {"k": 2}},
			"crossover": {"name": "uniform"},
			"mutator": {"name": "bitflip"}
		},
		"islands": {
			"demes": 4,
			"topology": "ring",
			"migration": {"interval": 5, "count": 2}
		},
		"seed": 41
	}`,
	"islands/sequential-biring-steadystate": `{
		"model": "islands",
		"problem": {"name": "sphere", "size": 6},
		"engine": {
			"type": "steadystate",
			"pop": 16,
			"selector": {"name": "tournament", "params": {"k": 2}},
			"crossover": {"name": "sbx"},
			"mutator": {"name": "polynomial"}
		},
		"islands": {
			"demes": 3,
			"topology": "biring",
			"migration": {"interval": 4, "count": 1}
		},
		"seed": 42
	}`,
	"islands/sequential-ring-cellular": `{
		"model": "islands",
		"problem": {"name": "onemax", "size": 48},
		"engine": {
			"type": "cellular",
			"crossover": {"name": "uniform"},
			"mutator": {"name": "bitflip"},
			"grid": {"rows": 4, "cols": 4, "update": "ls"}
		},
		"islands": {
			"demes": 3,
			"topology": "ring",
			"migration": {"interval": 5, "count": 2}
		},
		"seed": 43
	}`,
}

// TestSpecBuildParity proves spec-built runtimes are draw-identical to
// the hand-wired golden scenarios.
func TestSpecBuildParity(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", goldenFile))
	if err != nil {
		t.Fatalf("read golden traces: %v", err)
	}
	var want map[string]Trace
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse golden traces: %v", err)
	}

	if len(specScenarios) < 6 {
		t.Fatalf("parity suite covers %d scenarios, want at least 6", len(specScenarios))
	}
	for name, doc := range specScenarios {
		t.Run(name, func(t *testing.T) {
			golden, ok := want[name]
			if !ok {
				t.Fatalf("no golden trace for scenario %q", name)
			}
			s, perr := spec.Parse([]byte(doc))
			if perr != nil {
				t.Fatalf("Parse: %v", perr)
			}
			b, berr := spec.Build(*s)
			if berr != nil {
				t.Fatalf("Build: %v", berr)
			}
			var got Trace
			switch {
			case b.Engine != nil:
				got = engineTrace(b.Engine)
			case b.Islands != nil:
				got = islandTrace(b.Islands.RunSequential(core.MaxGenerations(gens), engine.Control{Trace: true}))
			default:
				t.Fatalf("spec built neither an engine nor an island model")
			}
			if got.Evaluations != golden.Evaluations {
				t.Errorf("evaluations: spec-built %d, golden %d", got.Evaluations, golden.Evaluations)
			}
			if len(got.Best) != len(golden.Best) {
				t.Fatalf("trace length: spec-built %d, golden %d", len(got.Best), len(golden.Best))
			}
			for i := range got.Best {
				if got.Best[i] != golden.Best[i] {
					t.Fatalf("gen %d: spec-built best %v, golden %v — the spec layer changed the draw sequence", i, got.Best[i], golden.Best[i])
				}
			}
		})
	}
}
