package analysis

import "testing"

// nodeByName finds a declared function/method node by its qualified
// display name ("pga/internal/operators.OkMut.Mutate").
func nodeByName(g *Graph, name string) *Node {
	for _, n := range g.Nodes {
		if n.Decl != nil && n.Name == name {
			return n
		}
	}
	return nil
}

// TestDrawShapeRule pins rule 13 on its fixtures: content-guarded draws
// in role methods, in a hot-listed function and behind a cross-package
// call are reported at the draw site (auxtail.go carries the marker for
// the cross-package case); structural and RNG-drawn guards stay silent.
func TestDrawShapeRule(t *testing.T) {
	checkRule(t, DrawShapeRule(), "drawshape_bad.go")
	checkRule(t, DrawShapeRule(), "drawshape_ok.go")
}

// TestDrawShapeCatchesWhatOthersMiss proves the seeded drawshape
// violations are invisible to every pre-existing rule: the full registry
// minus drawshape reports nothing on the bad fixture group.
func TestDrawShapeCatchesWhatOthersMiss(t *testing.T) {
	var rest []*Analyzer
	for _, a := range Registry() {
		if a.Name != "drawshape" {
			rest = append(rest, a)
		}
	}
	diags := RunAnalyzers("", fixtureGroupPkgs(t, "drawshape_bad.go"), rest)
	for _, d := range diags {
		t.Errorf("pre-existing rule %s reports on drawshape_bad.go: %s", d.Rule, d)
	}
}

// TestDrawShapesSymbolic pins the symbolic summaries themselves: the
// rendered canonical shapes of the ok-fixture functions, including loop
// multipliers, cond markers and cross-spelling agreement.
func TestDrawShapesSymbolic(t *testing.T) {
	facts := ComputeFacts(fixtureGroupPkgs(t, "drawshape_ok.go"))
	shapes := map[string]string{
		"pga/internal/operators.OkMut.Mutate": "cond·n×Float64 + n×Float64",
		"pga/internal/operators.OkSel.Select": "cond×Intn",
		"pga/internal/operators.CrossInto":    "n×Uint64",
		"pga/internal/fixrng.Source.Intn":     "1×Uint64",
		"pga/internal/fixrng.Source.Float64":  "1×Uint64",
	}
	for name, want := range shapes {
		n := nodeByName(facts.Graph, name)
		if n == nil {
			t.Errorf("node %s not found", name)
			continue
		}
		if got := facts.DrawShape(n).String(); got != want {
			t.Errorf("%s: shape %q, want %q", name, got, want)
		}
	}
}

// TestDrawShapeContentDeps pins where content-dependence is recorded on
// the bad fixture: the cross-package TailSel.Select carries fixgen's
// draw position, and OkMut-style functions carry none.
func TestDrawShapeContentDeps(t *testing.T) {
	facts := ComputeFacts(fixtureGroupPkgs(t, "drawshape_bad.go"))
	deps := map[string]int{
		"pga/internal/operators.BadMut.Mutate":  1,
		"pga/internal/operators.BadFlip.Mutate": 1,
		"pga/internal/operators.BadSel.Select":  1,
		"pga/internal/operators.CrossInto":      1,
		"pga/internal/operators.TailSel.Select": 1,
		"pga/internal/fixgen.PickTail":          1,
		"pga/internal/fixgen.PickHead":          0,
	}
	for name, want := range deps {
		n := nodeByName(facts.Graph, name)
		if n == nil {
			t.Errorf("node %s not found", name)
			continue
		}
		if got := len(facts.DrawShape(n).ContentDep); got != want {
			t.Errorf("%s: %d content-dependent sites, want %d (shape %s)",
				name, got, want, facts.DrawShape(n))
		}
	}
}

// TestDrawShapeCanonicalization pins the term algebra: merge-by-key,
// zero-coefficient drop, cond collapse, deterministic order, rendering.
func TestDrawShapeCanonicalization(t *testing.T) {
	s := &DrawShape{Terms: []DrawTerm{
		{Coeff: 2, Mult: []string{"n", "cond", "cond"}, Kind: "Intn"},
		{Coeff: 1, Mult: []string{"cond", "n"}, Kind: "Intn"},
		{Coeff: 1, Mult: nil, Kind: "Sample"},
		{Coeff: 3, Mult: []string{"pop"}, Kind: "Float64"},
		{Coeff: -3, Mult: []string{"pop"}, Kind: "Float64"},
	}}
	s.canonicalize()
	want := "3·cond·n×Intn + 1×Sample"
	if got := s.String(); got != want {
		t.Errorf("canonicalized shape %q, want %q", got, want)
	}

	var nilShape *DrawShape
	if got := nilShape.String(); got != "unknown" {
		t.Errorf("nil shape renders %q, want %q", got, "unknown")
	}
	empty := &DrawShape{}
	if got := empty.String(); got != "no draws" {
		t.Errorf("empty shape renders %q, want %q", got, "no draws")
	}
	empty.Incomplete = true
	if got := empty.String(); got != "no draws (incomplete)" {
		t.Errorf("incomplete empty shape renders %q, want %q", got, "no draws (incomplete)")
	}
}
