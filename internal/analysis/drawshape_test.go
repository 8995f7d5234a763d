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

// TestDrawShapeRule pins drawshape on its fixtures: content-guarded draws
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
		if got := len(facts.Summary(n).ContentDep); got != want {
			t.Errorf("%s: %d content-dependent sites, want %d", name, got, want)
		}
	}
}
