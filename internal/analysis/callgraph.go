package analysis

// Module-wide call graph for the interprocedural rules (purity,
// lockorder, boundedres) and the summary-aware retrofits of norawrand,
// nowallclock and hiddenalloc.
//
// Nodes are function *bodies*: every FuncDecl and every FuncLit gets its
// own node, because a closure spawned with `go` runs on a different
// goroutine than its lexical parent — the distinction the purity and
// concurrency rules track. Edges carry the relationship:
//
//   - EdgeCall:  ordinary (or deferred) call, same goroutine.
//   - EdgeSpawn: the call of a `go` statement — effects of the callee
//     happen on a freshly spawned goroutine.
//   - EdgeRef:   the function is referenced as a value (passed, stored,
//     or a closure is defined without being immediately invoked). The
//     body may run later on an unknown goroutine; rules treat Ref
//     conservatively as "may be called synchronously".
//
// Resolution is purely static and optimistic: calls through interfaces,
// function-typed variables and out-of-module functions produce no edge.
// pgalint is a linter, not a verifier — missing edges can only suppress
// findings, never invent them, which keeps the false-positive contract of
// the suite intact (DESIGN §7).

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// EdgeKind classifies a call-graph edge.
type EdgeKind int

const (
	// EdgeCall is a synchronous call (including defer).
	EdgeCall EdgeKind = iota
	// EdgeSpawn is the call of a go statement.
	EdgeSpawn
	// EdgeRef is a reference to the function as a value.
	EdgeRef
)

// String implements fmt.Stringer.
func (k EdgeKind) String() string {
	switch k {
	case EdgeCall:
		return "call"
	case EdgeSpawn:
		return "spawn"
	default:
		return "ref"
	}
}

// Node is one function body: a declared function/method or a closure.
type Node struct {
	// ID is the node's index in Graph.Nodes (deterministic: package topo
	// order, then file order, then syntax order).
	ID int
	// Name is the qualified display name: "pga/internal/ga.Step" for
	// declarations, "pga/internal/ga.Step$1" for the first closure inside
	// Step (nested closures extend the chain: "...Step$1$2").
	Name string
	// Pkg is the package the body lives in.
	Pkg *Package
	// Decl is the declaration (nil for closures).
	Decl *ast.FuncDecl
	// Lit is the closure literal (nil for declarations).
	Lit *ast.FuncLit
	// Obj is the declared function object (nil for closures).
	Obj *types.Func
	// Out and In are the edges leaving and entering this node, in
	// construction order.
	Out []*Edge
	In  []*Edge
}

// Pos returns the position of the function body's syntax.
func (n *Node) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	return n.Lit.Pos()
}

// End returns the end of the function body's syntax.
func (n *Node) End() token.Pos {
	if n.Decl != nil {
		return n.Decl.End()
	}
	return n.Lit.End()
}

// Body returns the function body block (possibly nil for bodyless decls).
func (n *Node) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// Edge is one caller→callee relationship.
type Edge struct {
	Caller *Node
	Callee *Node
	Kind   EdgeKind
	// Site is the call expression (nil for EdgeRef).
	Site *ast.CallExpr
	// Pos is the position of the call or reference.
	Pos token.Pos
}

// Graph is the module-wide call graph.
type Graph struct {
	// Nodes in deterministic creation order.
	Nodes []*Node

	byObj  map[*types.Func]*Node
	byDecl map[*ast.FuncDecl]*Node
	byLit  map[*ast.FuncLit]*Node

	sccs [][]*Node // bottom-up (callee-first) order; built lazily
}

// NodeOf returns the node for a declared function, or nil.
func (g *Graph) NodeOf(fd *ast.FuncDecl) *Node { return g.byDecl[fd] }

// BuildGraph constructs the call graph over pkgs (normally a full module
// in topological order, or a handful of fixture packages in tests).
func BuildGraph(pkgs []*Package) *Graph {
	g := &Graph{
		byObj:  map[*types.Func]*Node{},
		byDecl: map[*ast.FuncDecl]*Node{},
		byLit:  map[*ast.FuncLit]*Node{},
	}
	// Pass 1: nodes for every declaration, so forward and cross-package
	// references resolve during the edge walk.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				n := &Node{
					ID:   len(g.Nodes),
					Name: pkg.Path + "." + declName(fd),
					Pkg:  pkg,
					Decl: fd,
				}
				if pkg.Info != nil {
					if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						n.Obj = obj
						g.byObj[obj] = n
					}
				}
				g.byDecl[fd] = n
				g.Nodes = append(g.Nodes, n)
			}
		}
	}
	// Pass 2: closure nodes and edges, in one deterministic walk.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			g.walkFile(pkg, file)
		}
	}
	return g
}

// declName renders "Recv.Method" or "Func" for a declaration.
func declName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
			continue
		case *ast.ParenExpr:
			t = x.X
			continue
		case *ast.IndexExpr: // generic receiver
			t = x.X
			continue
		case *ast.Ident:
			return x.Name + "." + fd.Name.Name
		default:
			return fd.Name.Name
		}
	}
}

// walkFile adds closure nodes and all edges contributed by one file.
func (g *Graph) walkFile(pkg *Package, file *ast.File) {
	var stack []ast.Node
	// consumed marks expressions already handled as the callee of a
	// processed CallExpr, so the generic Ident/SelectorExpr cases below do
	// not double-count them as value references.
	consumed := map[ast.Node]bool{}
	closureSeq := map[*Node]int{}

	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch x := n.(type) {
		case *ast.FuncLit:
			parent := g.enclosing(stack[:len(stack)-1])
			if parent == nil {
				return true // package-level initializer expression
			}
			closureSeq[parent]++
			node := &Node{
				ID:   len(g.Nodes),
				Name: fmt.Sprintf("%s$%d", parent.Name, closureSeq[parent]),
				Pkg:  pkg,
				Lit:  x,
			}
			g.byLit[x] = node
			g.Nodes = append(g.Nodes, node)
			kind, site := litRelation(stack)
			g.addEdge(parent, node, kind, site, x.Pos())
		case *ast.CallExpr:
			fun := unparen(x.Fun)
			if _, isLit := fun.(*ast.FuncLit); isLit {
				return true // handled by the FuncLit case
			}
			callee := g.resolveCallee(pkg.Info, fun)
			if callee == nil {
				return true
			}
			consumed[fun] = true
			if caller := g.enclosing(stack[:len(stack)-1]); caller != nil {
				kind := EdgeCall
				if isGoCall(stack) {
					kind = EdgeSpawn
				}
				g.addEdge(caller, callee, kind, x, x.Pos())
			}
		case *ast.SelectorExpr:
			if consumed[n] {
				// Consumed as a callee: keep walking x.X (it may contain
				// further calls), but the Sel ident is part of the call, not
				// a value reference.
				consumed[x.Sel] = true
				return true
			}
			if callee := g.resolveCallee(pkg.Info, x); callee != nil {
				consumed[x.Sel] = true
				if caller := g.enclosing(stack[:len(stack)-1]); caller != nil {
					g.addEdge(caller, callee, EdgeRef, nil, x.Pos())
				}
			}
		case *ast.Ident:
			if consumed[n] {
				return true
			}
			if pkg.Info == nil {
				return true
			}
			obj, ok := pkg.Info.Uses[x].(*types.Func)
			if !ok {
				return true
			}
			if callee := g.byObj[obj]; callee != nil {
				if caller := g.enclosing(stack[:len(stack)-1]); caller != nil {
					g.addEdge(caller, callee, EdgeRef, nil, x.Pos())
				}
			}
		}
		return true
	})
}

// enclosing returns the node of the innermost FuncLit/FuncDecl on stack.
func (g *Graph) enclosing(stack []ast.Node) *Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch x := stack[i].(type) {
		case *ast.FuncLit:
			if n := g.byLit[x]; n != nil {
				return n
			}
		case *ast.FuncDecl:
			return g.byDecl[x]
		}
	}
	return nil
}

// litRelation decides how a closure literal relates to its parent: the
// immediately-invoked `func(){...}()` form is a Call, `go func(){...}()`
// a Spawn, and everything else (assignment, argument, struct field) a
// Ref. stack's top is the literal itself.
func litRelation(stack []ast.Node) (EdgeKind, *ast.CallExpr) {
	if len(stack) < 2 {
		return EdgeRef, nil
	}
	call, ok := stack[len(stack)-2].(*ast.CallExpr)
	if !ok || unparen(call.Fun) != stack[len(stack)-1] {
		return EdgeRef, nil
	}
	if len(stack) >= 3 {
		if g, ok := stack[len(stack)-3].(*ast.GoStmt); ok && g.Call == call {
			return EdgeSpawn, call
		}
	}
	return EdgeCall, call
}

// isGoCall reports whether the CallExpr on top of stack is the call of a
// go statement.
func isGoCall(stack []ast.Node) bool {
	if len(stack) < 2 {
		return false
	}
	call, _ := stack[len(stack)-1].(*ast.CallExpr)
	g, ok := stack[len(stack)-2].(*ast.GoStmt)
	return ok && call != nil && g.Call == call
}

// resolveCallee maps a callee expression to a module-declared function
// node, or nil for dynamic, builtin and out-of-module targets.
func (g *Graph) resolveCallee(info *types.Info, fun ast.Expr) *Node {
	if info == nil {
		return nil
	}
	switch x := unparen(fun).(type) {
	case *ast.Ident:
		if obj, ok := info.Uses[x].(*types.Func); ok {
			return g.byObj[obj]
		}
	case *ast.SelectorExpr:
		if obj, ok := info.Uses[x.Sel].(*types.Func); ok {
			return g.byObj[obj]
		}
	}
	return nil
}

// addEdge links caller→callee.
func (g *Graph) addEdge(caller, callee *Node, kind EdgeKind, site *ast.CallExpr, pos token.Pos) {
	e := &Edge{Caller: caller, Callee: callee, Kind: kind, Site: site, Pos: pos}
	caller.Out = append(caller.Out, e)
	callee.In = append(callee.In, e)
}

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// SCCs returns the strongly connected components of the graph in
// bottom-up (callee-first) order: every edge leaving a component targets
// a component that appears earlier in the slice. Summary propagation and
// the rules' taint closures iterate this order so each function sees its
// callees' final facts, looping only within a component until fixpoint.
func (g *Graph) SCCs() [][]*Node {
	if g.sccs != nil {
		return g.sccs
	}
	// Iterative Tarjan. index/lowlink are 1-based so the zero value means
	// "unvisited".
	n := len(g.Nodes)
	index := make([]int, n)
	lowlink := make([]int, n)
	onStack := make([]bool, n)
	var sccStack []*Node
	next := 1

	type frame struct {
		node *Node
		edge int
	}
	var visit func(root *Node)
	visit = func(root *Node) {
		frames := []frame{{node: root}}
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.node
			if f.edge == 0 {
				index[v.ID] = next
				lowlink[v.ID] = next
				next++
				sccStack = append(sccStack, v)
				onStack[v.ID] = true
			}
			advanced := false
			for f.edge < len(v.Out) {
				w := v.Out[f.edge].Callee
				f.edge++
				if index[w.ID] == 0 {
					frames = append(frames, frame{node: w})
					advanced = true
					break
				}
				if onStack[w.ID] && index[w.ID] < lowlink[v.ID] {
					lowlink[v.ID] = index[w.ID]
				}
			}
			if advanced {
				continue
			}
			if lowlink[v.ID] == index[v.ID] {
				var scc []*Node
				for {
					w := sccStack[len(sccStack)-1]
					sccStack = sccStack[:len(sccStack)-1]
					onStack[w.ID] = false
					scc = append(scc, w)
					if w == v {
						break
					}
				}
				g.sccs = append(g.sccs, scc)
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].node
				if lowlink[v.ID] < lowlink[p.ID] {
					lowlink[p.ID] = lowlink[v.ID]
				}
			}
		}
	}
	for _, v := range g.Nodes {
		if index[v.ID] == 0 {
			visit(v)
		}
	}
	return g.sccs
}

// graphJSON is the -graph dump format: one entry per node in ID order,
// edges in construction order. Positions are root-relative so goldens are
// machine-independent.
type graphJSON struct {
	Functions []graphFuncJSON `json:"functions"`
}

type graphFuncJSON struct {
	Name    string          `json:"name"`
	Pos     string          `json:"pos"`
	Closure bool            `json:"closure,omitempty"`
	Edges   []graphEdgeJSON `json:"edges,omitempty"`
}

type graphEdgeJSON struct {
	To   string `json:"to"`
	Kind string `json:"kind"`
	Pos  string `json:"pos"`
}

// JSON renders the graph in the stable -graph dump format.
func (g *Graph) JSON(root string, fset *token.FileSet) ([]byte, error) {
	out := graphJSON{Functions: []graphFuncJSON{}}
	posOf := func(p token.Pos) string {
		pos := fset.Position(p)
		return fmt.Sprintf("%s:%d", relPath(root, pos.Filename), pos.Line)
	}
	for _, n := range g.Nodes {
		fn := graphFuncJSON{Name: n.Name, Pos: posOf(n.Pos()), Closure: n.Lit != nil}
		for _, e := range n.Out {
			fn.Edges = append(fn.Edges, graphEdgeJSON{
				To:   e.Callee.Name,
				Kind: e.Kind.String(),
				Pos:  posOf(e.Pos),
			})
		}
		out.Functions = append(out.Functions, fn)
	}
	return json.MarshalIndent(out, "", "  ")
}
