package analysis

// rngflow: one goroutine, one stream — through any call chain.
//
// internal/rng.Source is deliberately not synchronized: the whole point
// of splittable streams is that deme i's stream is private to deme i's
// goroutine, making parallel runs reproducible regardless of scheduling.
// A stream drawn from two goroutines is a data race that `go test -race`
// only catches when the schedules actually collide — and even when it
// doesn't crash, interleaved draws destroy replayability silently. The
// sharing may be as plain as a go-closure capturing a stream its parent
// keeps using, or hide behind any amount of indirection:
//
//	go func() { r.Intn(n) }(); r.Intn(n)   // closure capture
//	go worker(r)          // named function draws from r on its goroutine
//	helper(r)             // helper spawns a drawer internally
//	for i := ... {
//	    go worker(r)      // one stream, N goroutines
//	}
//
// Using the summary engine, every function knows — transitively, through
// any call chain — which of its RNG streams are drawn on the calling
// goroutine (Draws) and which escape to a spawned goroutine that draws
// (SpawnDraws). A violation is any stream with:
//
//  1. both spawned-goroutine and same-goroutine draw evidence, or
//  2. two distinct spawn sites drawing it (two goroutines, one stream), or
//  3. a single spawn-draw site inside a loop whose body does not also
//     declare the stream — the static site is one, the dynamic
//     goroutines are many. The sanctioned `ws := r.Split()` inside the
//     loop body stays clean: its stream is declared per iteration.
//
// Findings land on the spawn site. The fix is always the same: Split() a
// child stream and move it into the goroutine, or pass the stream as a
// call argument evaluated at spawn.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// RngFlow builds the rngflow analyzer.
func RngFlow() *Analyzer {
	return &Analyzer{
		Name: "rngflow",
		Doc: "flags an RNG stream drawn from two goroutines through any call chain: " +
			"spawned-goroutine draws combined with same-goroutine draws, multiple " +
			"spawn sites, or a spawn-draw in a loop that does not own the stream",
		Run: runRngFlow,
	}
}

func runRngFlow(pass *Pass) {
	if pass.Facts == nil {
		return
	}
	for _, n := range pass.Facts.Graph.Nodes {
		// Package identity, not path: fixture harnesses check several
		// packages under one path, and each pass must own only its nodes.
		if n.Pkg == nil || pass.Pkg == nil || n.Pkg.Types != pass.Pkg {
			continue
		}
		checkNodeRngFlow(pass, n)
	}
}

func checkNodeRngFlow(pass *Pass, n *Node) {
	s := pass.Facts.Summary(n)
	if s == nil || len(s.SpawnDraws) == 0 {
		return
	}
	// Deterministic variable order: by declaration position.
	vars := make([]*types.Var, 0, len(s.SpawnDraws))
	for v := range s.SpawnDraws {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i].Pos() < vars[j].Pos() })

	for _, v := range vars {
		spawns := sortedPositions(s.SpawnDraws[v])
		syncs := sortedPositions(s.Draws[v])
		switch {
		case len(syncs) > 0:
			pass.Reportf(spawns[0], "rngflow",
				"rng stream %q is drawn on a goroutine spawned here and also on the "+
					"creating goroutine (%s); draws interleave nondeterministically — "+
					"Split() a child stream for the goroutine",
				v.Name(), pass.Fset.Position(syncs[0]))
		case len(spawns) > 1:
			pass.Reportf(spawns[1], "rngflow",
				"rng stream %q is drawn on a second spawned goroutine (first spawn at %s); "+
					"one stream may feed only one goroutine — Split() a child per spawn",
				v.Name(), pass.Fset.Position(spawns[0]))
		case spawnInForeignLoop(n, v, spawns[0]):
			pass.Reportf(spawns[0], "rngflow",
				"rng stream %q is handed to a goroutine spawned inside a loop but is "+
					"declared outside it: every iteration's goroutine draws from the same "+
					"stream — Split() a child inside the loop body",
				v.Name())
		}
	}
}

// sortedPositions returns a sorted copy.
func sortedPositions(ps []token.Pos) []token.Pos {
	out := append([]token.Pos(nil), ps...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// spawnInForeignLoop reports whether pos sits inside a for/range statement
// (within n's body) that does not also contain v's declaration — the
// one-static-site-many-goroutines case.
func spawnInForeignLoop(n *Node, v *types.Var, pos token.Pos) bool {
	body := n.Body()
	if body == nil {
		return false
	}
	found := false
	var visit func(ast.Node) bool
	visit = func(node ast.Node) bool {
		if found || node == nil {
			return false
		}
		var loopBody *ast.BlockStmt
		switch x := node.(type) {
		case *ast.ForStmt:
			loopBody = x.Body
		case *ast.RangeStmt:
			loopBody = x.Body
		}
		if loopBody != nil && loopBody.Pos() <= pos && pos <= loopBody.End() {
			if v.Pos() < loopBody.Pos() || v.Pos() > loopBody.End() {
				found = true
				return false
			}
		}
		return true
	}
	ast.Inspect(body, visit)
	return found
}
