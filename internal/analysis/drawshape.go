package analysis

// drawshape: the static half of the PR 8 draw-compatibility contract.
// Every engine-registered operator/fitness role (the purity role shapes)
// and every function on the hiddenalloc hot list must have a
// *content-independent* RNG draw shape — no draw may execute under a
// branch whose condition reads genome or population content. A
// content-dependent draw count makes seeded runs diverge between
// otherwise-equivalent configurations (the property the golden traces
// pin dynamically, here proven over the whole call chain for every
// operator at once).
//
// The rule reads two summary facts (summary.go propagates them along
// call edges with every other fact): HasDraw, "this function or a
// synchronous callee draws", and ContentDep, the draw sites — here or in
// any synchronous callee — guarded by content. This file computes their
// body-local half with one walk per function body:
//
//   - A *draw site* is a method call on an identifier whose type is an
//     RNG stream (isRNGStream); argument values are not compared. A draw
//     site is never folded further, so rng.Intn's internal Uint64
//     rejection loop is the rng package's business, not the operator's.
//   - Branches (if/switch) push a guard. If the condition mentions
//     genome/population content — a Fitness/Evaluated field, indexing
//     into Genes/Perm/Words/Members, a non-Len method on a genome-like
//     type, or a local already tainted by one of those (a per-body
//     fixpoint; taint does not cross calls or flow through parameters) —
//     every draw site under it is content-dependent, and so is every
//     call under it whose callee draws. Len()/len(), type switches,
//     select and other RNG draws are structural, not content.
//   - Go statements and closure bodies are skipped: a spawned or stored
//     closure is its own node.
//
// Like the rest of the suite the walk is optimistic — an unresolved call
// can only suppress findings, never invent them. Known holes, accepted
// as documented approximations: draws inside closures invoked through
// variables, draws via method values, guards that merely *continue* past
// a draw, and content-dependent loop *trip counts* (ERX's adjacency
// walk); the golden traces in internal/equiv still pin those operators
// dynamically.
//
// Findings are reported at the offending draw site, which may live in a
// helper in another package. Genuine, documented content-dependence
// (Roulette's degenerate-span fallback draws Intn instead of Float64) is
// exempted by name, not by suppression directives.

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// drawShapeExempt lists fully qualified node names (receiver-sensitive,
// unlike the hot list) whose content-dependence is documented and
// accepted.
var drawShapeExempt = []string{
	// Roulette wheel selection with a degenerate fitness span falls back
	// to a uniform Intn draw — a documented, fitness-dependent draw-kind
	// switch pinned by the golden traces. The branch lives in pick, which
	// reads the span's flatness from the selection plan; Select and
	// SelectScratch reach it.
	"pga/internal/operators.Roulette.Select",
	"pga/internal/operators.Roulette.SelectScratch",
	"pga/internal/operators.Roulette.pick",
}

// DrawShapeRule returns the drawshape analyzer: it checks the purity
// roles plus the hiddenalloc hot list.
func DrawShapeRule() *Analyzer {
	return &Analyzer{
		Name: "drawshape",
		Doc: "requires operator/fitness roles and hot-listed functions to have " +
			"content-independent RNG draw shapes: no draw (through any call chain) " +
			"may be guarded by genome or population content",
		Run: func(pass *Pass) {
			if pass.Facts == nil {
				return
			}
			for _, file := range pass.Files {
				for _, decl := range file.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Body == nil || !drawShapeChecked(pass, fd) {
						continue
					}
					n := pass.Facts.Graph.NodeOf(fd)
					if n == nil || slices.Contains(drawShapeExempt, n.Name) {
						continue
					}
					for _, pos := range pass.Facts.Summary(n).ContentDep {
						pass.Reportf(pos, "drawshape",
							"content-dependent RNG draw reachable from %s: the draw executes only under a condition that reads genome/population content, so seeded runs diverge with population state",
							n.Name)
					}
				}
			}
		},
	}
}

// drawShapeChecked reports whether fd is in the rule's scope: a purity
// role method or a hot-listed function.
func drawShapeChecked(pass *Pass, fd *ast.FuncDecl) bool {
	if allowedFunc(hiddenAllocHot, pass.PkgPath, fd.Name.Name) {
		return true
	}
	if fd.Recv == nil {
		return false
	}
	for i := range purityRoles {
		role := &purityRoles[i]
		if role.Method == fd.Name.Name && roleMatches(pass, fd, role) {
			return true
		}
	}
	return false
}

// maxContentDeps bounds the recorded content-dependent draw positions.
const maxContentDeps = 32

// addContentDep records a content-dependent draw position on s,
// deduplicated and bounded, and reports change.
func addContentDep(s *Summary, pos token.Pos) bool {
	if slices.Contains(s.ContentDep, pos) || len(s.ContentDep) >= maxContentDeps {
		return false
	}
	s.ContentDep = append(s.ContentDep, pos)
	return true
}

// directDraws fills s's body-local draw facts: HasDraw, the ContentDep
// sites that are draws themselves, and syncCalls — every other call the
// body makes on its own goroutine, with whether a content guard encloses
// it — for mergeEdge to fold callees through.
func directDraws(s *Summary, info *types.Info, body *ast.BlockStmt) {
	if info == nil {
		return
	}
	w := &drawWalker{s: s, info: info, body: body}
	w.scanStmt(body, false)
}

// drawWalker carries the per-body state of one walk.
type drawWalker struct {
	s    *Summary
	info *types.Info
	body *ast.BlockStmt
	// tainted marks locals whose value derives from genome/population
	// content: a per-body fixpoint, run when the first branch condition
	// asks (most bodies have none).
	tainted map[*types.Var]bool
}

// contentGuard reports whether a branch on cond is a content guard.
func (w *drawWalker) contentGuard(cond ast.Expr) bool {
	if w.tainted == nil {
		w.collectLocals()
	}
	return w.mentionsContent(cond)
}

// collectLocals runs the content taint fixpoint over the whole body
// (closures included): a local is tainted when any value assigned to it
// (or the range operand it iterates) mentions content.
func (w *drawWalker) collectLocals() {
	body := w.body
	w.tainted = make(map[*types.Var]bool)
	for changed, rounds := true, 0; changed && rounds < 10; rounds++ {
		changed = false
		mark := func(id *ast.Ident, src ast.Expr) {
			v := w.varOf(id)
			if v == nil || w.tainted[v] || src == nil {
				return
			}
			if w.mentionsContent(src) {
				w.tainted[v] = true
				changed = true
			}
		}
		ast.Inspect(body, func(nd ast.Node) bool {
			switch s := nd.(type) {
			case *ast.AssignStmt:
				aligned := len(s.Lhs) == len(s.Rhs)
				for i, lhs := range s.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					if aligned {
						mark(id, s.Rhs[i])
						continue
					}
					for _, rhs := range s.Rhs {
						mark(id, rhs)
					}
				}
			case *ast.RangeStmt:
				// Ranging over a content slice yields content elements
				// even though len() of the same slice is structural.
				content := w.mentionsContent(s.X)
				if sel, ok := unparen(s.X).(*ast.SelectorExpr); ok && contentSlices[sel.Sel.Name] {
					content = true
				}
				if content {
					for _, kv := range []ast.Expr{s.Key, s.Value} {
						if id, ok := kv.(*ast.Ident); ok {
							if v := w.varOf(id); v != nil && !w.tainted[v] {
								w.tainted[v] = true
								changed = true
							}
						}
					}
				}
			}
			return true
		})
	}
}

// varOf resolves an identifier to its variable object (definition or
// use), or nil.
func (w *drawWalker) varOf(id *ast.Ident) *types.Var {
	if v, ok := w.info.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := w.info.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

// contentFields are struct-field names whose read means genome or
// population content (as opposed to structure like N or Words length).
var contentFields = map[string]bool{
	"Fitness":   true,
	"Evaluated": true,
}

// contentSlices are field names whose *elements* are content; indexing
// or ranging over them taints, len() of them does not.
var contentSlices = map[string]bool{
	"Genes":   true,
	"Perm":    true,
	"Words":   true,
	"Members": true,
}

// contentTypes are the genome-like named types whose non-Len methods
// read content.
var contentTypes = map[string]bool{
	"Genome":      true,
	"BitString":   true,
	"RealVector":  true,
	"IntVector":   true,
	"Permutation": true,
	"Population":  true,
	"Individual":  true,
}

// mentionsContent reports whether e reads genome/population content:
// a content field, an element of a content slice, a non-Len method on a
// genome-like type, or a tainted local.
func (w *drawWalker) mentionsContent(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(nd ast.Node) bool {
		if found {
			return false
		}
		switch x := nd.(type) {
		case *ast.Ident:
			if v := w.varOf(x); v != nil && w.tainted[v] {
				found = true
			}
		case *ast.SelectorExpr:
			if contentFields[x.Sel.Name] {
				found = true
			}
		case *ast.IndexExpr:
			if sel, ok := unparen(x.X).(*ast.SelectorExpr); ok && contentSlices[sel.Sel.Name] {
				found = true
			}
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name != "Len" {
				if t := w.info.TypeOf(sel.X); t != nil && contentTypes[namedTypeName(t)] {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// scanStmt walks one statement; guarded says a content-tainted condition
// encloses it.
func (w *drawWalker) scanStmt(stmt ast.Stmt, guarded bool) {
	switch s := stmt.(type) {
	case nil:
		return
	case *ast.BlockStmt:
		for _, st := range s.List {
			w.scanStmt(st, guarded)
		}
	case *ast.ExprStmt:
		w.scanExpr(s.X, guarded)
	case *ast.AssignStmt:
		for _, e := range s.Lhs {
			w.scanExpr(e, guarded)
		}
		for _, e := range s.Rhs {
			w.scanExpr(e, guarded)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.scanExpr(e, guarded)
					}
				}
			}
		}
	case *ast.IfStmt:
		// Init and Cond run unconditionally: `if r.Chance(p) {` draws
		// exactly once regardless of the branch taken.
		w.scanStmt(s.Init, guarded)
		w.scanExpr(s.Cond, guarded)
		inner := guarded || w.contentGuard(s.Cond)
		w.scanStmt(s.Body, inner)
		w.scanStmt(s.Else, inner)
	case *ast.ForStmt:
		w.scanStmt(s.Init, guarded)
		w.scanExpr(s.Cond, guarded)
		w.scanStmt(s.Post, guarded)
		w.scanStmt(s.Body, guarded)
	case *ast.RangeStmt:
		w.scanExpr(s.X, guarded)
		w.scanStmt(s.Body, guarded)
	case *ast.SwitchStmt:
		w.scanStmt(s.Init, guarded)
		w.scanExpr(s.Tag, guarded)
		inner := guarded || (s.Tag != nil && w.contentGuard(s.Tag))
		for _, cc := range s.Body.List {
			for _, e := range cc.(*ast.CaseClause).List {
				w.scanExpr(e, guarded)
				inner = inner || w.contentGuard(e)
			}
		}
		for _, cc := range s.Body.List {
			for _, st := range cc.(*ast.CaseClause).Body {
				w.scanStmt(st, inner)
			}
		}
	case *ast.TypeSwitchStmt:
		// Dispatch on concrete type is structural, not content.
		w.scanStmt(s.Init, guarded)
		for _, cc := range s.Body.List {
			for _, st := range cc.(*ast.CaseClause).Body {
				w.scanStmt(st, guarded)
			}
		}
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CommClause)
			w.scanStmt(clause.Comm, guarded)
			for _, st := range clause.Body {
				w.scanStmt(st, guarded)
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.scanExpr(e, guarded)
		}
	case *ast.SendStmt:
		w.scanExpr(s.Chan, guarded)
		w.scanExpr(s.Value, guarded)
	case *ast.IncDecStmt:
		w.scanExpr(s.X, guarded)
	case *ast.DeferStmt:
		w.scanExpr(s.Call, guarded)
	case *ast.LabeledStmt:
		w.scanStmt(s.Stmt, guarded)
	case *ast.GoStmt:
		// Spawned draws belong to the goroutine's own node.
	}
}

// scanExpr visits every call inside e (statements cannot nest in
// expressions except through closures, which are pruned).
func (w *drawWalker) scanExpr(e ast.Expr, guarded bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(nd ast.Node) bool {
		switch x := nd.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			w.handleCall(x, guarded)
		}
		return true
	})
}

// handleCall records a draw site, or files the call for mergeEdge to
// fold its callee through.
func (w *drawWalker) handleCall(call *ast.CallExpr, guarded bool) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if id, ok := unparen(sel.X).(*ast.Ident); ok {
			if v, ok := w.info.Uses[id].(*types.Var); ok && isRNGStream(v.Type()) {
				w.s.HasDraw = true
				if guarded {
					addContentDep(w.s, call.Pos())
				}
				return
			}
		}
	}
	if w.s.syncCalls == nil {
		w.s.syncCalls = map[*ast.CallExpr]bool{}
	}
	w.s.syncCalls[call] = guarded
}
