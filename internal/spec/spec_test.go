package spec

import (
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"

	"pga/internal/genome"
	"pga/internal/problems"
	"pga/internal/rng"
)

// mustParse parses or fails the test.
func mustParse(t *testing.T, doc string) *RunSpec {
	t.Helper()
	s, err := Parse([]byte(doc))
	if err != nil {
		t.Fatalf("Parse(%s): %v", doc, err)
	}
	return s
}

// fieldPaths extracts the sorted field paths of a structured error.
func fieldPaths(t *testing.T, err error) []string {
	t.Helper()
	se, ok := err.(*Error)
	if !ok {
		t.Fatalf("error is %T, want *spec.Error: %v", err, err)
	}
	if len(se.Fields) == 0 {
		t.Fatalf("structured error with no fields")
	}
	paths := make([]string, len(se.Fields))
	for i, f := range se.Fields {
		if f.Reason == "" {
			t.Errorf("field %q has empty reason", f.Path)
		}
		paths[i] = f.Path
	}
	return paths
}

// hasPath reports whether any reported field path starts with want.
func hasPath(paths []string, want string) bool {
	for _, p := range paths {
		if p == want || strings.HasPrefix(p, want+".") {
			return true
		}
	}
	return false
}

func TestParseMinimal(t *testing.T) {
	s := mustParse(t, `{"model":"generational","problem":{"name":"onemax","size":32},"seed":7}`)
	if s.Model != ModelGenerational || s.Problem.Name != "onemax" || s.Problem.Size != 32 || s.Seed != 7 {
		t.Fatalf("unexpected spec: %+v", s)
	}
}

// TestNaNBudgetRefused: a NaN amount, which only a spec built in Go can
// carry, is refused like a negative one — a NaN cost cap never fires, so
// the run would never end.
func TestNaNBudgetRefused(t *testing.T) {
	s := RunSpec{Model: ModelHGA, Problem: ProblemSpec{Name: "sphere", Size: 4}, Budget: BudgetSpec{Cost: math.NaN()}}
	if _, err := Resolve(s); err == nil || !hasPath(fieldPaths(t, err), "budget.cost") {
		t.Fatalf("NaN budget.cost validated (err %v)", err)
	}
}

func TestParseStructuredErrors(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		path string // a field path the error must mention
	}{
		{"not json", `{`, "(document)"},
		{"trailing data", `{"model":"generational","problem":{"name":"onemax","size":8}} garbage`, "(document)"},
		{"unknown top-level field", `{"model":"generational","problem":{"name":"onemax","size":8},"bogus":1}`, "(document)"},
		{"type mismatch", `{"model":"generational","problem":{"name":"onemax","size":"eight"}}`, "problem.size"},
		{"unknown model", `{"model":"quantum","problem":{"name":"onemax","size":8}}`, "model"},
		{"unknown problem", `{"model":"generational","problem":{"name":"unobtanium","size":8}}`, "problem.name"},
		{"missing size", `{"model":"generational","problem":{"name":"onemax"}}`, "problem.size"},
		{"bad version", `{"version":9,"model":"generational","problem":{"name":"onemax","size":8}}`, "version"},
		{"negative replicates", `{"model":"generational","problem":{"name":"onemax","size":8},"replicates":-1}`, "replicates"},
		{"pop too small", `{"model":"generational","problem":{"name":"onemax","size":8},"engine":{"pop":1}}`, "engine.pop"},
		{"crossover rate range", `{"model":"generational","problem":{"name":"onemax","size":8},"engine":{"crossover_rate":1.5}}`, "engine.crossover_rate"},
		{"gen gap range", `{"model":"generational","problem":{"name":"onemax","size":8},"engine":{"gen_gap":-0.1}}`, "engine.gen_gap"},
		{"elitism vs pop", `{"model":"generational","problem":{"name":"onemax","size":8},"engine":{"pop":10,"elitism":10}}`, "engine.elitism"},
		{"unknown operator", `{"model":"generational","problem":{"name":"onemax","size":8},"engine":{"crossover":{"name":"mystery"}}}`, "engine.crossover.name"},
		{"operator wrong kind", `{"model":"generational","problem":{"name":"onemax","size":8},"engine":{"crossover":{"name":"tournament"}}}`, "engine.crossover.name"},
		{"operator wrong genome class", `{"model":"generational","problem":{"name":"sphere","size":4},"engine":{"mutator":{"name":"bitflip"}}}`, "engine.mutator.name"},
		{"undocumented param", `{"model":"generational","problem":{"name":"onemax","size":8},"engine":{"crossover":{"name":"uniform","params":{"sigma":0.5}}}}`, "engine.crossover.params.sigma"},
		{"selector cannot be none", `{"model":"generational","problem":{"name":"onemax","size":8},"engine":{"selector":{"name":"none"}}}`, "engine.selector.name"},
		{"deme type on panmictic model", `{"model":"generational","problem":{"name":"onemax","size":8},"engine":{"type":"steadystate"}}`, "engine.type"},
		{"replace on generational", `{"model":"generational","problem":{"name":"onemax","size":8},"engine":{"replace":"worst"}}`, "engine.replace"},
		{"workers outside parallel", `{"model":"generational","problem":{"name":"onemax","size":8},"engine":{"workers":4}}`, "engine.workers"},
		{"grid outside cellular", `{"model":"generational","problem":{"name":"onemax","size":8},"engine":{"grid":{"rows":4,"cols":4}}}`, "engine.grid"},
		{"cellular pop", `{"model":"cellular","problem":{"name":"onemax","size":8},"engine":{"pop":50}}`, "engine.pop"},
		{"cellular selector", `{"model":"cellular","problem":{"name":"onemax","size":8},"engine":{"selector":{"name":"tournament"}}}`, "engine.selector"},
		{"bad grid update", `{"model":"cellular","problem":{"name":"onemax","size":8},"engine":{"grid":{"update":"chaos"}}}`, "engine.grid.update"},
		{"section model mismatch", `{"model":"generational","problem":{"name":"onemax","size":8},"islands":{"demes":4}}`, "islands"},
		{"sim engine section", `{"model":"sim","problem":{"name":"zdt1","size":6},"engine":{"pop":20}}`, "engine"},
		{"sim problem vocabulary", `{"model":"sim","problem":{"name":"onemax","size":8}}`, "problem.name"},
		{"hga needs real benchmark", `{"model":"hga","problem":{"name":"onemax","size":8}}`, "problem.name"},
		{"cost outside hga", `{"model":"generational","problem":{"name":"onemax","size":8},"budget":{"cost":100}}`, "budget.cost"},
		{"async islands budget", `{"model":"islands","problem":{"name":"onemax","size":8},"islands":{"mode":"parallel","migration":{"async":true}},"budget":{"stagnation":5}}`, "budget"},
		{"target optimum unknown", `{"model":"generational","problem":{"name":"nk","size":10},"budget":{"target_optimum":true}}`, "budget.target_optimum"},
		{"sim target optimum", `{"model":"sim","problem":{"name":"zdt1","size":6},"budget":{"target_optimum":true}}`, "budget.target_optimum"},
		{"bad topology kind", `{"model":"islands","problem":{"name":"onemax","size":8},"islands":{"topology":"moebius"}}`, "islands.topology.kind"},
		{"shape on ring", `{"model":"islands","problem":{"name":"onemax","size":8},"islands":{"topology":{"kind":"ring","rows":2}}}`, "islands.topology"},
		{"torus shape mismatch", `{"model":"islands","problem":{"name":"onemax","size":8},"islands":{"demes":6,"topology":{"kind":"torus","rows":2,"cols":4}}}`, "islands.topology"},
		{"hypercube demes", `{"model":"islands","problem":{"name":"onemax","size":8},"islands":{"demes":6,"topology":"hypercube"}}`, "islands.topology.kind"},
		{"random degree", `{"model":"islands","problem":{"name":"onemax","size":8},"islands":{"demes":4,"topology":{"kind":"random","degree":4}}}`, "islands.topology.degree"},
		{"rewire on static topology", `{"model":"islands","problem":{"name":"onemax","size":8},"islands":{"rewire_every":3}}`, "islands.rewire_every"},
		{"resilience needs parallel", `{"model":"islands","problem":{"name":"onemax","size":8},"islands":{"resilience":"default"}}`, "islands.resilience"},
		{"faults need resilience", `{"model":"islands","problem":{"name":"onemax","size":8},"islands":{"mode":"parallel","faults":[{"kind":"panic","deme":0,"gen":2}]}}`, "islands.faults"},
		{"fault deme range", `{"model":"islands","problem":{"name":"onemax","size":8},"islands":{"demes":4,"mode":"parallel","resilience":"default","faults":[{"kind":"panic","deme":7,"gen":2}]}}`, "islands.faults[0].deme"},
		{"hang with times", `{"model":"islands","problem":{"name":"onemax","size":8},"islands":{"mode":"parallel","resilience":"default","faults":[{"kind":"hang","deme":0,"gen":2,"times":2}]}}`, "islands.faults[0].times"},
		{"p2p single peer", `{"model":"p2p","problem":{"name":"onemax","size":8},"p2p":{"peers":1}}`, "p2p.peers"},
		{"p2p churn range", `{"model":"p2p","problem":{"name":"onemax","size":8},"p2p":{"churn":1.5}}`, "p2p.churn"},
		{"hga layer size", `{"model":"hga","problem":{"name":"sphere","size":4},"hga":{"layers":[1,0]}}`, "hga.layers[1]"},
		{"hga level count", `{"model":"hga","problem":{"name":"sphere","size":4},"hga":{"layers":[1,2],"levels":[0]}}`, "hga.levels"},
		{"sim scenario range", `{"model":"sim","problem":{"name":"zdt1","size":6},"sim":{"scenario":9}}`, "sim.scenario"},
		{"sim hv_ref shape", `{"model":"sim","problem":{"name":"zdt1","size":6},"sim":{"hv_ref":[1.0]}}`, "sim.hv_ref"},
		// Each of these validated at the parent commit and then panicked or
		// hung: in Parse itself (the two sizes), in Build (the level), in
		// Run (the deme size, the tournament).
		{"nk size not above K", `{"model":"generational","problem":{"name":"nk","size":4}}`, "problem.size"},
		{"maxsat below one clause's variables", `{"model":"generational","problem":{"name":"maxsat","size":2}}`, "problem.size"},
		{"hga level beyond the wrapper's", `{"model":"hga","problem":{"name":"sphere","size":4},"hga":{"layers":[1,2],"levels":[9,9]}}`, "hga.levels[0]"},
		{"sim deme of one", `{"model":"sim","problem":{"name":"zdt1","size":6},"sim":{"deme_size":1}}`, "sim.deme_size"},
		{"operator param out of range", `{"model":"generational","problem":{"name":"onemax","size":8},"engine":{"selector":{"name":"tournament","params":{"k":1e18}}}}`, "engine.selector.params.k"},
		{"operator param below range", `{"model":"generational","problem":{"name":"sphere","size":4},"engine":{"selector":{"name":"rank","params":{"sp":0.5}}}}`, "engine.selector.params.sp"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.doc))
			if err == nil {
				t.Fatalf("Parse accepted %s", tc.doc)
			}
			paths := fieldPaths(t, err)
			if !hasPath(paths, tc.path) {
				t.Errorf("error paths %v do not mention %q", paths, tc.path)
			}
		})
	}
}

// TestHGALevelsAgainstDefaultLayers: hga.levels is measured against the
// layers the run will have — the default {1,2,4} when the document gives
// none — so three levels alone are a valid section (the parent commit
// compared them with the zero layers written down and refused).
func TestHGALevelsAgainstDefaultLayers(t *testing.T) {
	s := mustParse(t, `{"model":"hga","problem":{"name":"sphere","size":4},"engine":{"pop":6},"hga":{"levels":[0,1,2]},"budget":{"cost":40},"seed":3}`)
	p, err := Resolve(*s)
	if err != nil {
		t.Fatal(err)
	}
	if rep := p.Build().Run(RunOpts{}); !slices.Equal(p.hierarchy.LayerSizes, []int{1, 2, 4}) || rep.Evaluations == 0 {
		t.Errorf("ran layers %v for %d evaluations, want the default 1+2+4", p.hierarchy.LayerSizes, rep.Evaluations)
	}
	if _, err := Parse([]byte(`{"model":"hga","problem":{"name":"sphere","size":4},"hga":{"levels":[0,1]}}`)); err == nil || !hasPath(fieldPaths(t, err), "hga.levels") {
		t.Errorf("two levels for the three default layers: %v", err)
	}
}

// TestHGAFinalRescoreSolvePoint: a run that only the final precise
// re-scoring finds solved reports where it became known, the run's last
// generation and evaluation count, not a solve without a solve point.
func TestHGAFinalRescoreSolvePoint(t *testing.T) {
	s := mustParse(t, `{"model":"hga","problem":{"name":"sphere","size":2},"engine":{"pop":12},"hga":{"layers":[1,2],"levels":[0,1]},"budget":{"cost":300},"seed":74}`)
	b, err := Build(*s)
	if err != nil {
		t.Fatal(err)
	}
	rep := b.Run(RunOpts{})
	if !rep.Solved || rep.SolvedAtGen <= 0 || rep.SolvedAtEval <= 0 {
		t.Errorf("solved %v at generation %d, evaluation %d: want solved with a positive solve point",
			rep.Solved, rep.SolvedAtGen, rep.SolvedAtEval)
	}
	if rep.SolvedAtGen != rep.Generations || rep.SolvedAtEval != rep.Evaluations {
		t.Errorf("solve point (%d, %d), want the run's end (%d, %d): the final re-scoring found it",
			rep.SolvedAtGen, rep.SolvedAtEval, rep.Generations, rep.Evaluations)
	}
}

// TestNonFiniteOperatorParam: JSON cannot spell NaN or an infinity, a
// hand-built RunSpec can.
func TestNonFiniteOperatorParam(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		s := RunSpec{Model: ModelGenerational, Problem: ProblemSpec{Name: "sphere", Size: 4},
			Engine: EngineSpec{Crossover: &OperatorSpec{Name: "sbx", Params: map[string]float64{"eta": v}}}}
		if _, err := Resolve(s); err == nil || !hasPath(fieldPaths(t, err), "engine.crossover.params.eta") {
			t.Errorf("eta = %v: %v", v, err)
		}
	}
}

// TestProblemSizeSweep runs every problem key of both vocabularies at
// sizes 0 to 8: each either builds and runs a generation or is refused
// at problem.size — never a panic.
func TestProblemSizeSweep(t *testing.T) {
	type run struct{ model, key string }
	var runs []run
	for _, key := range problems.Keys() {
		runs = append(runs, run{ModelGenerational, key})
	}
	for _, ent := range simProblems {
		runs = append(runs, run{ModelSIM, ent.name})
	}
	for _, r := range runs {
		for size := 0; size <= 8; size++ {
			s := RunSpec{Model: r.model, Problem: ProblemSpec{Name: r.key, Size: size}, Budget: BudgetSpec{Generations: 1}, Seed: 1}
			if r.model == ModelGenerational {
				s.Engine.Pop = 4
			} else {
				s.SIM = &SIMSpec{DemeSize: 4}
			}
			b, err := Build(s)
			if err != nil {
				if paths := fieldPaths(t, err); len(paths) != 1 || paths[0] != "problem.size" {
					t.Errorf("%s size %d: refused at %v, want problem.size only", r.key, size, paths)
				}
				continue
			}
			if rep := b.Run(RunOpts{}); rep.Generations != 1 || rep.Evaluations == 0 {
				t.Errorf("%s size %d: ran %d generations, %d evaluations", r.key, size, rep.Generations, rep.Evaluations)
			}
		}
	}
	// The minimum is the registry's: one below it is refused, it is not,
	// and a bit-string problem built at it has genes to evolve.
	for _, key := range problems.Keys() {
		entry, _ := problems.Lookup(key)
		_, below := ProblemSpec{Name: key, Size: entry.MinSize - 1}.Instance(1)
		p, at := ProblemSpec{Name: key, Size: entry.MinSize}.Instance(1)
		if below == nil || at != nil {
			t.Errorf("%s (min %d): one below → %v, at → %v", key, entry.MinSize, below, at)
			continue
		}
		if b, ok := p.NewGenome(rng.New(1)).(*genome.BitString); ok && b.N == 0 {
			t.Errorf("%s (min %d): builds a zero-length genome", key, entry.MinSize)
		}
	}
}

// TestEncodedAndApplicationRowsMinSize: each encoded and application
// row of the registry is refused one below its MinSize and builds and
// runs a generation at MinSize, one above it and 64 — odd sizes too,
// which graphpart rounds down to whole vertex pairs.
func TestEncodedAndApplicationRowsMinSize(t *testing.T) {
	for _, key := range []string{
		"rastrigin-bin16", "rastrigin-gray16", "tsp-circle", "tsp-clustered", "sched", "featsel",
		"imgreg", "stock", "doppler-ar2", "reactor", "graphpart", "cameras",
	} {
		entry, err := problems.Lookup(key)
		if err != nil {
			t.Fatal(err)
		}
		runAt := func(size int) RunSpec {
			return RunSpec{Model: ModelGenerational, Problem: ProblemSpec{Name: key, Size: size},
				Engine: EngineSpec{Pop: 4}, Budget: BudgetSpec{Generations: 1}, Seed: 1}
		}
		below := runAt(entry.MinSize - 1)
		if _, err := Resolve(below); err == nil || !hasPath(fieldPaths(t, err), "problem.size") {
			t.Errorf("%s at %d: Resolve = %v, want a problem.size refusal", key, entry.MinSize-1, err)
		}
		for _, size := range []int{entry.MinSize, entry.MinSize + 1, 64} {
			b, err := Build(runAt(size))
			if err != nil {
				t.Errorf("%s at %d: %v", key, size, err)
				continue
			}
			if rep := b.Run(RunOpts{}); rep.Generations != 1 || math.IsNaN(rep.Best) || math.IsInf(rep.Best, 0) {
				t.Errorf("%s at %d: %d generations, best %v", key, size, rep.Generations, rep.Best)
			}
		}
	}
}

// TestValidateCollectsAll checks that validation reports every violation
// in one pass rather than stopping at the first.
func TestValidateCollectsAll(t *testing.T) {
	doc := `{"model":"generational","problem":{"name":"onemax","size":8},` +
		`"engine":{"pop":1,"crossover_rate":2,"gen_gap":-1},"replicates":-2}`
	_, err := Parse([]byte(doc))
	if err == nil {
		t.Fatal("Parse accepted invalid spec")
	}
	paths := fieldPaths(t, err)
	for _, want := range []string{"engine.pop", "engine.crossover_rate", "engine.gen_gap", "replicates"} {
		if !hasPath(paths, want) {
			t.Errorf("error paths %v missing %q", paths, want)
		}
	}
}

func TestErrorFormatting(t *testing.T) {
	one := &Error{Fields: []FieldError{{Path: "engine.pop", Reason: "too small"}}}
	if got := one.Error(); got != "spec: engine.pop: too small" {
		t.Errorf("single-field Error() = %q", got)
	}
	two := &Error{Fields: []FieldError{
		{Path: "a", Reason: "x"},
		{Path: "b", Reason: "y"},
	}}
	msg := two.Error()
	if !strings.Contains(msg, "a: x") || !strings.Contains(msg, "b: y") {
		t.Errorf("multi-field Error() = %q", msg)
	}
}

// TestJSONRoundTrip serialises representative specs and re-parses them,
// requiring a fixed point: Parse(JSON(s)) == s and the second JSON is
// byte-identical (canonical form).
func TestJSONRoundTrip(t *testing.T) {
	docs := []string{
		`{"model":"generational","problem":{"name":"onemax","size":64},"engine":{"pop":40,"selector":{"name":"tournament","params":{"k":3}},"crossover":{"name":"onepoint"},"mutator":{"name":"bitflip","params":{"p":0.02}},"crossover_rate":0.8,"gen_gap":0.5,"elitism":2},"budget":{"generations":50,"target_optimum":true},"seed":11}`,
		`{"model":"steadystate","problem":{"name":"knapsack","size":32,"seed":5},"engine":{"replace":"random"},"budget":{"evaluations":10000},"seed":3}`,
		`{"model":"cellular","problem":{"name":"onemax","size":32},"engine":{"grid":{"rows":6,"cols":6,"update":"ls","neighborhood":"c9"}},"seed":9}`,
		`{"model":"islands","problem":{"name":"sphere","size":6},"islands":{"demes":4,"topology":{"kind":"torus","rows":2,"cols":2},"migration":{"interval":5,"count":2,"select":"tournament","replace":"worst-if-better"}},"budget":{"generations":20},"seed":41}`,
		`{"model":"islands","problem":{"name":"onemax","size":24},"islands":{"demes":4,"mode":"parallel","resilience":"eager","faults":[{"kind":"panic","deme":1,"gen":3,"times":2}]},"budget":{"generations":10},"seed":5}`,
		`{"model":"p2p","problem":{"name":"onemax","size":16},"p2p":{"peers":8,"view":3,"gossip_every":4,"churn":0.1},"budget":{"generations":15},"seed":2}`,
		`{"model":"hga","problem":{"name":"rastrigin","size":4},"hga":{"layers":[1,2,4],"interval":5},"budget":{"cost":500},"seed":6}`,
		`{"model":"sim","problem":{"name":"zdt1","size":6},"sim":{"scenario":3,"deme_size":20,"hv_ref":[1.1,1.1]},"budget":{"generations":12},"seed":8}`,
	}
	for _, doc := range docs {
		s := mustParse(t, doc)
		out1, err := s.JSON()
		if err != nil {
			t.Fatalf("JSON(): %v", err)
		}
		s2, perr := Parse(out1)
		if perr != nil {
			t.Fatalf("re-Parse of canonical form failed: %v\n%s", perr, out1)
		}
		out2, err := s2.JSON()
		if err != nil {
			t.Fatalf("JSON() second pass: %v", err)
		}
		if string(out1) != string(out2) {
			t.Errorf("canonical JSON is not a fixed point:\nfirst:  %s\nsecond: %s", out1, out2)
		}
	}
}

// TestTopologyShorthand checks both JSON forms of TopologySpec.
func TestTopologyShorthand(t *testing.T) {
	s := mustParse(t, `{"model":"islands","problem":{"name":"onemax","size":8},"islands":{"topology":"biring"}}`)
	if s.Islands.Topology.Kind != "biring" {
		t.Errorf("string shorthand: kind = %q", s.Islands.Topology.Kind)
	}
	s = mustParse(t, `{"model":"islands","problem":{"name":"onemax","size":8},"islands":{"demes":6,"topology":{"kind":"grid","rows":2,"cols":3}}}`)
	tp := s.Islands.Topology
	if tp.Kind != "grid" || tp.Rows != 2 || tp.Cols != 3 {
		t.Errorf("object form: %+v", tp)
	}
	if _, err := Parse([]byte(`{"model":"islands","problem":{"name":"onemax","size":8},"islands":{"topology":{"kind":"ring","sides":5}}}`)); err == nil {
		t.Error("unknown topology field accepted")
	}
}

// TestProblemSeedOverride checks the instance-seed default and override.
func TestProblemSeedOverride(t *testing.T) {
	base := mustParse(t, `{"model":"generational","problem":{"name":"nk","size":12},"seed":7}`)
	over := mustParse(t, `{"model":"generational","problem":{"name":"nk","size":12,"seed":99},"seed":7}`)
	if base.Problem.Seed != nil {
		t.Error("unset problem seed should stay nil")
	}
	if over.Problem.Seed == nil || *over.Problem.Seed != 99 {
		t.Errorf("problem seed override lost: %+v", over.Problem)
	}
	// Round-trip keeps the distinction (omitempty on a *uint64).
	b, _ := base.JSON()
	if strings.Contains(string(b), `"seed": 0,`) && strings.Contains(string(b), `"problem"`) {
		s2 := mustParse(t, string(b))
		if s2.Problem.Seed != nil {
			t.Error("round-trip invented a problem seed")
		}
	}
	var raw map[string]json.RawMessage
	ob, _ := over.JSON()
	if err := json.Unmarshal(ob, &raw); err != nil {
		t.Fatal(err)
	}
}
