package analysis

// boundedres: the communication hot paths must run in bounded memory.
//
// PR 6's transport established the contract: per-peer queues are
// fixed-capacity with drop-oldest, channels that cross goroutines are
// buffered, and nothing on the steady-state path grows without bound.
// This rule enforces two halves of that contract inside the scoped
// packages (transport, supervise, island):
//
//   - no unbuffered channels: make(chan T) without a capacity is a
//     rendezvous — a send blocks until a receiver arrives, which is
//     exactly the coupling the pump design avoids. Pure signal channels
//     (chan struct{}, closed rather than sent to) are exempt.
//   - no unbounded growth: an append without a reserving make whose
//     target is a struct field or package-level variable accumulates
//     across calls — a per-peer queue that outlives the statement. The
//     growth facts come off the interprocedural summaries, so a helper
//     growing its *[]T parameter is charged to the hot caller's slice.
//
// Cold paths (setup, scripted fault plans, failure bookkeeping bounded
// elsewhere) are exempted by package-qualified function name, mirroring
// hiddenalloc's Hot/Cold idiom.

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
)

// boundedResScope lists the packages whose hot paths the bound applies
// to (exact path or prefix/...): the communication layers.
var boundedResScope = []string{
	"pga/internal/transport",
	"pga/internal/supervise",
	"pga/internal/island",
}

// boundedResCold lists package-qualified functions ("pkg/path.Func" or
// "pkg/path.Type.Method") whose growth is bounded by construction and
// exempt from the append check.
var boundedResCold = []string{
	// Fault plans are scripted before the run starts stepping.
	"pga/internal/supervise.FaultPlan.Add",
	// Failure-path bookkeeping, bounded by the per-deme restart budget
	// (MaxRestarts), not by the statement.
	"pga/internal/supervise.Supervisor.Restart",
}

// BoundedRes builds the boundedres analyzer.
func BoundedRes() *Analyzer {
	var cachedFacts *Facts
	var pending []chanDiag
	return &Analyzer{
		Name: "boundedres",
		Doc: "requires statically bounded resources on the transport/supervise/" +
			"island hot paths: no unbuffered channels (rendezvous coupling the " +
			"pumps forbid; chan struct{} signals exempt) and no unbounded append " +
			"growth on struct fields or globals (per-peer queues must be " +
			"fixed-capacity drop-oldest)",
		Run: func(pass *Pass) {
			if pass.Facts == nil {
				return
			}
			if pass.Facts != cachedFacts {
				cachedFacts = pass.Facts
				pending = computeBoundedRes(pass.Facts)
			}
			for _, d := range pending {
				for _, f := range pass.Files {
					if f.FileStart <= d.pos && d.pos <= f.FileEnd {
						pass.Reportf(d.pos, "boundedres", "%s", d.msg)
						break
					}
				}
			}
			if pathMatchAny(boundedResScope, pass.PkgPath) {
				checkUnbufferedChans(pass)
			}
		},
	}
}

// computeBoundedRes collects the unbounded-growth findings from the
// propagated summaries of every scoped function.
func computeBoundedRes(facts *Facts) []chanDiag {
	// Cold functions exempt every growth site lexically inside them, so
	// facts propagated out of a cold body stay exempt wherever observed.
	type posRange struct{ lo, hi token.Pos }
	var cold []posRange
	for _, n := range facts.Graph.Nodes {
		if slices.Contains(boundedResCold, n.Name) { // Node.Name is already package-qualified
			cold = append(cold, posRange{lo: n.Pos(), hi: n.End()})
		}
	}
	inCold := func(pos token.Pos) bool {
		for _, r := range cold {
			if r.lo <= pos && pos <= r.hi {
				return true
			}
		}
		return false
	}

	seen := map[token.Pos]bool{}
	var diags []chanDiag
	for _, n := range facts.Graph.Nodes {
		if n.Pkg == nil || !pathMatchAny(boundedResScope, n.Pkg.Path) {
			continue
		}
		s := facts.Summary(n)
		if s == nil {
			continue
		}
		for _, g := range s.Grows {
			if g.Param >= 0 || g.Obj == nil {
				continue // parameter growth is charged at a binding call site
			}
			v, ok := g.Obj.(*types.Var)
			if !ok || !(v.IsField() || isGlobalVar(v)) {
				continue
			}
			// The grown state must itself belong to a scoped package:
			// reaching an out-of-scope accumulator (spec's trace record, persist
			// snapshots) through a call chain is that package's business.
			if v.Pkg() == nil || !pathMatchAny(boundedResScope, v.Pkg().Path()) {
				continue
			}
			if seen[g.Pos] || inCold(g.Pos) {
				continue
			}
			seen[g.Pos] = true
			kind := "struct field"
			if !v.IsField() {
				kind = "package-level slice"
			}
			diags = append(diags, chanDiag{pos: g.Pos,
				msg: "append grows " + kind + " \"" + v.Name() + "\" without a " +
					"static capacity bound on a hot communication path; use a " +
					"fixed-capacity ring or drop-oldest queue"})
		}
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].pos < diags[j].pos })
	return diags
}

// checkUnbufferedChans flags rendezvous channels created in scoped
// packages: make(chan T) with no capacity and a non-struct{} element.
func checkUnbufferedChans(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := unparen(call.Fun).(*ast.Ident)
			if !ok || id.Name != "make" || len(call.Args) != 1 {
				return true
			}
			if pass.Info != nil {
				if obj, ok := pass.Info.Uses[id]; ok {
					if _, builtin := obj.(*types.Builtin); !builtin {
						return true
					}
				}
			}
			tv, ok := pass.Info.Types[call.Args[0]]
			if !ok || tv.Type == nil {
				return true
			}
			ch, ok := tv.Type.Underlying().(*types.Chan)
			if !ok {
				return true
			}
			if st, ok := ch.Elem().Underlying().(*types.Struct); ok && st.NumFields() == 0 {
				return true // close-only signal channel
			}
			pass.Reportf(call.Pos(), "boundedres",
				"unbuffered channel on a hot communication path: a send is a "+
					"rendezvous that blocks until a receiver arrives; give it an "+
					"explicit capacity (or use chan struct{} for pure signals)")
			return true
		})
	}
}
