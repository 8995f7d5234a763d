package spec

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"pga/internal/operators"
	"pga/internal/problems"
	"pga/internal/rng"
)

// defectDocs are the documents that validated at the parent commit of
// the resolve pass and then panicked, hung or ran something else (or, the
// last, were refused though valid). Both fuzz targets start from them.
var defectDocs = []string{
	`{"model":"generational","problem":{"name":"nk","size":4}}`,
	`{"model":"generational","problem":{"name":"maxsat","size":2}}`,
	`{"model":"hga","problem":{"name":"sphere","size":4},"hga":{"layers":[1,2],"levels":[9,9]}}`,
	`{"model":"sim","problem":{"name":"zdt1","size":6},"sim":{"deme_size":1}}`,
	`{"model":"generational","problem":{"name":"onemax","size":8},"engine":{"selector":{"name":"tournament","params":{"k":1e18}}}}`,
	`{"model":"hga","problem":{"name":"sphere","size":4},"hga":{"levels":[0,1,2]}}`,
}

// FuzzParse feeds arbitrary bytes through both document parsers. The
// contract under test: never panic, and every rejection is a structured
// *Error with at least one located field.
func FuzzParse(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`[]`,
		`null`,
		`{"model":"generational","problem":{"name":"onemax","size":8}}`,
		`{"model":"islands","problem":{"name":"onemax","size":8},"islands":{"demes":4,"topology":"torus"}}`,
		`{"model":"sim","problem":{"name":"zdt1","size":6}}`,
		`{"model":"hga","problem":{"name":"sphere","size":4},"budget":{"cost":100}}`,
		`{"base":{"model":"generational","problem":{"name":"onemax","size":8}},"sweep":{"engine.pop":[4,8]}}`,
		`{"base":{"model":"generational","problem":{"name":"onemax","size":8}},"sweep":{"seed":{"from":1,"to":3}}}`,
		`{"model":"generational","problem":{"name":"onemax","size":1e9}}`,
		`{"model":"generational","problem":{"name":"onemax","size":8},"seed":18446744073709551615}`,
		`{"model":"generational","problem":{"name":"onemax","size":8},"engine":{"crossover":{"name":"none"}}}`,
		`{"base":{},"sweep":{"..":[1]}}`,
		`{"base":{"model":"generational","problem":{"name":"onemax","size":8}},"sweep":{"problem":[{"name":"trap","size":12}]}}`,
		`{"base":{"model":"generational","problem":{"name":"onemax","size":8}},"sweep":{"engine.pop":[4,6]},"replicates":20000000}`,
	}
	for _, s := range append(seeds, defectDocs...) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if s, err := Parse(data); err != nil {
			requireStructured(t, err)
		} else if s == nil {
			t.Fatal("Parse returned nil spec and nil error")
		}
		if file, err := ParseFile(data); err != nil {
			requireStructured(t, err)
		} else if file == nil || (file.Single == nil && file.Sweep == nil) {
			t.Fatal("ParseFile returned an empty document without error")
		}
	})
}

func requireStructured(t *testing.T, err error) {
	t.Helper()
	se, ok := err.(*Error)
	if !ok {
		t.Fatalf("rejection is %T (%v), want *spec.Error", err, err)
	}
	if len(se.Fields) == 0 {
		t.Fatal("structured error with no fields")
	}
	for _, f := range se.Fields {
		if f.Path == "" || f.Reason == "" {
			t.Fatalf("field with empty path or reason: %+v", se.Fields)
		}
	}
	if se.Error() == "" {
		t.Fatal("empty error message")
	}
}

// names lists a vocabulary the way the fuzzer draws from it: every name,
// then the empty default, then one name no table has.
func names[T any](v vocab[T]) []string {
	out := make([]string, 0, len(v)+2)
	for _, ent := range v {
		out = append(out, ent.name)
	}
	return append(out, "", "bogus")
}

func at[T any](vals []T, v byte) T { return vals[int(v)%len(vals)] }

// Small and boundary numerics, one step either side of each range edge
// the resolve pass checks.
var (
	fuzzInts   = []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 63, 64, -1}
	fuzzFloats = []float64{0, 0.5, 1, 1.5, 2, -0.1, 20, 64, 65, 1024, 1025, 1e18, math.NaN(), math.Inf(1)}
)

// fuzzOperator draws one operator slot: empty, disabled, unknown, or a
// registry key of any kind with at most one parameter, documented or not.
func fuzzOperator(v byte) *OperatorSpec {
	keys := append(operators.SpecKeys(""), "", wordNone, "bogus")
	op := &OperatorSpec{Name: at(keys, v)}
	if op.Name == "" {
		return nil
	}
	params := []string{"k", "p", "sp", "frac", "eta", "sigma", "alpha", "bogus", ""}
	if name := at(params, v/37); name != "" {
		op.Params = map[string]float64{name: at(fuzzFloats, v/7)}
	}
	return op
}

// fuzzFields are the mutations FuzzValidateBuild applies, one per
// (selector, value) byte pair. Every name is drawn from the table that
// resolves it, so a vocabulary entry added later is fuzzed unasked.
var fuzzFields = []func(s *RunSpec, v byte){
	func(s *RunSpec, v byte) { s.Model = at(append(Models(), "bogus"), v) },
	func(s *RunSpec, v byte) {
		s.Problem.Name = at(append(problems.Keys(), names(simProblems)...), v)
	},
	func(s *RunSpec, v byte) { s.Problem.Size = at(fuzzInts, v) },
	func(s *RunSpec, v byte) { s.Version, s.Replicates = at(fuzzInts, v), at(fuzzInts, v/16) },
	func(s *RunSpec, v byte) { s.Engine.Type = at(names(demeEngines), v) },
	func(s *RunSpec, v byte) { s.Engine.Pop = at(fuzzInts, v) },
	func(s *RunSpec, v byte) { s.Engine.Selector = fuzzOperator(v) },
	func(s *RunSpec, v byte) { s.Engine.Crossover = fuzzOperator(v) },
	func(s *RunSpec, v byte) { s.Engine.Mutator = fuzzOperator(v) },
	func(s *RunSpec, v byte) {
		s.Engine.CrossoverRate, s.Engine.GenGap = at(fuzzFloats, v), at(fuzzFloats, v/16)
	},
	func(s *RunSpec, v byte) { s.Engine.Elitism = at(fuzzInts, v) - 2 },
	func(s *RunSpec, v byte) { s.Engine.Replace = at(names(steadyReplace), v) },
	func(s *RunSpec, v byte) { s.Engine.Workers = at(fuzzInts, v) },
	func(s *RunSpec, v byte) {
		s.Engine.Grid = &GridSpec{Rows: at(fuzzInts, v), Cols: at(fuzzInts, v/16)}
	},
	func(s *RunSpec, v byte) {
		if s.Engine.Grid == nil {
			s.Engine.Grid = &GridSpec{}
		}
		s.Engine.Grid.Update, s.Engine.Grid.Neighborhood = at(names(gridUpdates), v), at(names(neighborhoods), v/8)
	},
	func(s *RunSpec, v byte) { s.Engine = EngineSpec{} },
	func(s *RunSpec, v byte) { fuzzIslands(s).Demes = at(fuzzInts, v) },
	func(s *RunSpec, v byte) { fuzzIslands(s).Topology.Kind = at(names(topologies), v) },
	func(s *RunSpec, v byte) {
		fuzzIslands(s).Topology.Rows, fuzzIslands(s).Topology.Cols = at(fuzzInts, v), at(fuzzInts, v/16)
	},
	func(s *RunSpec, v byte) {
		fuzzIslands(s).Topology.Degree, fuzzIslands(s).Topology.Seed = at(fuzzInts, v), uint64(v/16)
	},
	func(s *RunSpec, v byte) {
		m := &fuzzIslands(s).Migration
		m.Interval, m.Count, m.Buffer, m.Async = at(fuzzInts, v), at(fuzzInts, v/4), at(fuzzInts, v/16), v&1 == 1
	},
	func(s *RunSpec, v byte) {
		m := &fuzzIslands(s).Migration
		m.Select, m.Replace = at(names(migrantSelects), v), at(names(migrantReplaces), v/8)
	},
	func(s *RunSpec, v byte) { fuzzIslands(s).Mode = at(names(islandModes), v) },
	func(s *RunSpec, v byte) { fuzzIslands(s).Resilience = at(names(resiliences), v) },
	func(s *RunSpec, v byte) { fuzzIslands(s).RewireEvery = at(fuzzInts, v) },
	func(s *RunSpec, v byte) {
		is := fuzzIslands(s)
		is.Faults = append(is.Faults, FaultSpec{
			Kind: at(names(faultKinds), v), Deme: at(fuzzInts, v/4), Gen: at(fuzzInts, v/16),
			Times: at(fuzzInts, v/32), HangMS: at(fuzzInts, v/64),
		})
	},
	func(s *RunSpec, v byte) { s.Farm = &FarmSpec{Workers: at(fuzzInts, v)} },
	func(s *RunSpec, v byte) {
		s.P2P = &P2PSpec{Peers: at(fuzzInts, v), ViewSize: at(fuzzInts, v/4), GossipEvery: at(fuzzInts, v/16), MinPeers: at(fuzzInts, v/64)}
	},
	func(s *RunSpec, v byte) {
		if s.P2P == nil {
			s.P2P = &P2PSpec{}
		}
		s.P2P.Churn, s.P2P.Rejoin = at(fuzzFloats, v), at(fuzzFloats, v/16)
	},
	func(s *RunSpec, v byte) {
		if s.HGA == nil {
			s.HGA = &HGASpec{}
		}
		s.HGA.Layers = append(s.HGA.Layers, at(fuzzInts, v))
		s.HGA.Interval = at(fuzzInts, v/16)
	},
	func(s *RunSpec, v byte) {
		if s.HGA == nil {
			s.HGA = &HGASpec{}
		}
		s.HGA.Levels = append(s.HGA.Levels, at(fuzzInts, v))
	},
	func(s *RunSpec, v byte) {
		s.SIM = &SIMSpec{Scenario: at(fuzzInts, v), DemeSize: at(fuzzInts, v/4), Interval: at(fuzzInts, v/16), ArchiveCap: at(fuzzInts, v/64)}
	},
	func(s *RunSpec, v byte) {
		if s.SIM == nil {
			s.SIM = &SIMSpec{}
		}
		s.SIM.HVRef = make([]float64, int(v)%4)
	},
	func(s *RunSpec, v byte) { s.Islands, s.Farm, s.P2P, s.HGA, s.SIM = nil, nil, nil, nil, nil },
	func(s *RunSpec, v byte) {
		s.Budget.Generations, s.Budget.Evaluations, s.Budget.Stagnation = at(fuzzInts, v), int64(at(fuzzInts, v/4)), at(fuzzInts, v/16)
	},
	func(s *RunSpec, v byte) {
		s.Budget.TargetOptimum = v&1 == 1
		if s.Budget.Target = nil; v&2 == 2 {
			s.Budget.Target = &fuzzFloats[int(v/4)%3]
		}
	},
	func(s *RunSpec, v byte) { s.Budget.Cost = at(fuzzFloats, v) },
	func(s *RunSpec, v byte) { s.Seed = uint64(v) },
}

func fuzzIslands(s *RunSpec) *IslandSpec {
	if s.Islands == nil {
		s.Islands = &IslandSpec{}
	}
	return s.Islands
}

// fuzzBound caps what a valid run may cost, leaving every value on the
// rejected side of a check (negatives, NaN) as it is: sizes to 64,
// populations to 16, deme counts to 8, hangs to 5 ms, and a budget of two
// generations or a cost of 20 whichever the model runs on.
func fuzzBound(s *RunSpec) {
	capAt := func(hi int, xs ...*int) {
		for _, x := range xs {
			*x = min(*x, hi)
		}
	}
	capAt(64, &s.Problem.Size)
	capAt(16, &s.Engine.Pop)
	capAt(4, &s.Engine.Workers)
	if g := s.Engine.Grid; g != nil {
		capAt(4, &g.Rows, &g.Cols)
	}
	if g := s.Engine.Grid; g == nil || g.Rows == 0 || g.Cols == 0 {
		s.Engine.Grid = nil // else a 10-wide default grid
	}
	if is := s.Islands; is != nil {
		capAt(8, &is.Demes, &is.Topology.Rows, &is.Topology.Cols, &is.Topology.Degree,
			&is.Migration.Count, &is.Migration.Buffer)
		is.Faults = is.Faults[:min(len(is.Faults), 3)]
		for i := range is.Faults {
			capAt(5, &is.Faults[i].HangMS, &is.Faults[i].Times)
		}
	}
	if fs := s.Farm; fs != nil {
		capAt(4, &fs.Workers)
	}
	if ps := s.P2P; ps != nil {
		capAt(8, &ps.Peers, &ps.ViewSize, &ps.MinPeers)
		if ps.Peers == 0 {
			ps.Peers = 4
		}
	}
	if hs := s.HGA; hs != nil {
		hs.Layers = hs.Layers[:min(len(hs.Layers), 3)]
		hs.Levels = hs.Levels[:min(len(hs.Levels), 4)]
		for i := range hs.Layers {
			capAt(4, &hs.Layers[i])
		}
	}
	if ss := s.SIM; ss != nil {
		capAt(16, &ss.DemeSize)
		capAt(64, &ss.ArchiveCap)
	}
	s.Budget.Evaluations = min(s.Budget.Evaluations, 200)
	s.Budget.Cost = math.Min(s.Budget.Cost, 20) // NaN stays NaN
	capAt(2, &s.Budget.Generations)
	for _, m := range models {
		if m.name != s.Model {
			continue
		}
		if m.budget == budgetCost && s.Budget.Cost == 0 {
			s.Budget.Cost = 20
		} else if m.budget != budgetCost && s.Budget.Generations == 0 {
			s.Budget.Generations = 2
		}
		if m.family != nil || m.demes {
			if s.Engine.Pop == 0 && s.Engine.Grid == nil {
				s.Engine.Pop = 6 // else the engine default of 100 (or a 10×10 grid)
			}
		}
	}
}

// FuzzValidateBuild is the differential test behind "validates ⇒
// builds": a RunSpec is decoded from doc (leniently — a document Parse
// would refuse is still a RunSpec value), mutated field by field from the
// model and vocabulary tables, and then Validate and Build must agree.
// Accepted: Build succeeds and the run completes within the deadline.
// Refused: a structured *Error with located fields, and Build returns
// the same one.
func FuzzValidateBuild(f *testing.F) {
	for _, doc := range defectDocs {
		f.Add([]byte(doc), []byte{})
	}
	for _, doc := range smokeSpecs {
		f.Add([]byte(doc), []byte{})
	}
	f.Add([]byte(`{}`), []byte{0, 5, 1, 7, 2, 4, 17, 8, 23, 2, 25, 1})
	f.Fuzz(func(t *testing.T, doc, muts []byte) { checkValidateBuild(t, doc, muts) })
}

// TestValidateBuildAgree holds the fuzzer's property in every test run:
// each model's smoke spec under seeded random mutations, one to three at a
// time, so that a good share of the specs stay valid and are run.
func TestValidateBuildAgree(t *testing.T) {
	r := rng.New(20240518)
	valid := 0
	for _, model := range Models() {
		for i := 0; i < 2000; i++ {
			muts := make([]byte, 2*(1+r.Intn(3)))
			for j := range muts {
				muts[j] = byte(r.Intn(256))
			}
			if checkValidateBuild(t, []byte(smokeSpecs[model]), muts) {
				valid++
			}
		}
	}
	if valid < 1500 {
		t.Errorf("only %d of %d mutated specs were valid and run; the mutations no longer reach Build", valid, 2000*len(Models()))
	}
}

// checkValidateBuild is the property; it reports whether the spec was
// valid (and so was built and run).
func checkValidateBuild(t *testing.T, doc, muts []byte) bool {
	t.Helper()
	var s RunSpec
	if err := json.Unmarshal(doc, &s); err != nil {
		s = RunSpec{}
	}
	for i := 0; i+1 < len(muts) && i < 64; i += 2 {
		at(fuzzFields, muts[i])(&s, muts[i+1])
	}
	fuzzBound(&s)

	verr := s.Validate()
	b, berr := Build(s)
	if verr != nil {
		requireStructured(t, verr)
		if !reflect.DeepEqual(berr, error(verr)) {
			t.Fatalf("Validate refused with\n%v\nbut Build returned\n%v", verr, berr)
		}
		return false
	}
	if berr != nil {
		t.Fatalf("validated, then Build refused: %v\n%+v", berr, s)
	}
	done := make(chan *Report, 1)
	go func() { done <- b.Run(RunOpts{}) }()
	select {
	case rep := <-done:
		if rep.Model != s.Model {
			t.Fatalf("report of model %q for spec of model %q", rep.Model, s.Model)
		}
	case <-time.After(20 * time.Second):
		doc, _ := s.JSON()
		t.Fatalf("run still going after 20s:\n%s", doc)
	}
	return true
}
