package analysis

// hiddenalloc: generation hot paths must not allocate per birth.
//
// PR 3 rewrote the engines' generation steps around pooled, double-
// buffered populations so a steady-state step performs zero heap
// allocations (the ROADMAP's single-core performance north star: before
// the rewrite, GC pressure — not selection or crossover — dominated a
// step's wall time). That property is protected at runtime by the
// allocation-budget tests (perf_gate_test.go), but a budget test only
// covers the configurations it constructs. This rule is the static half
// of the gate: inside the named hot-path functions it flags the two
// allocation patterns the refactor eliminated —
//
//  1. Clone() calls: cloning an individual or genome per birth is
//     exactly the pattern the pooled CopyFrom/CrossInto machinery
//     replaced. One-time buffer construction (ensureBuffers) is not a
//     hot function and stays free to clone.
//  2. append to a slice that was not created in the same function by
//     make with an explicit capacity: such appends grow geometrically
//     and reallocate across births.
//
// False positives are suppressed the usual way with
// //pgalint:ignore hiddenalloc <justification>.

import (
	"go/ast"
)

// HiddenAllocConfig configures the hiddenalloc analyzer.
type HiddenAllocConfig struct {
	// Hot lists the generation hot-path functions, as package-qualified
	// names ("pga/internal/ga.Step") matching the enclosing function or
	// method name regardless of receiver. Closures inside a hot function
	// are covered too (they report under the enclosing declaration).
	Hot []string
	// Cold lists sanctioned allocating functions a hot path may call:
	// adaptive-copy and setup primitives that allocate only on first use
	// or shape mismatch and are steady-state allocation-free (the runtime
	// AllocsPerRun gates enforce that half). Cold functions neither
	// report nor propagate allocation taint to their callers.
	Cold []string
}

// hiddenAllocHot is the repository's production hot list (drawshape
// checks the same functions): the per-generation step of every engine
// plus the in-place operator entry points they call.
var hiddenAllocHot = []string{
	// Sequential engines: one generation / PopSize births.
	"pga/internal/ga.Step",
	"pga/internal/ga.birth",
	// Cellular engine: one sweep / one cell update.
	"pga/internal/cellular.Step",
	"pga/internal/cellular.updateInPlace",
	"pga/internal/cellular.offspringInto",
	// In-place operator layer: called once or twice per birth.
	"pga/internal/operators.CrossInto",
	"pga/internal/operators.SelectScratch",
	"pga/internal/operators.SelectWith",
	// Selection plan: opened and dropped once per generation (once per
	// steady-state birth), its tables grown only under a capacity guard.
	"pga/internal/operators.Plan",
	"pga/internal/operators.plan",
	"pga/internal/operators.Unplan",
	// Batched evaluation seam: runs once per generation on the
	// engine goroutine, between births.
	"pga/internal/core.EvaluateAll",
	"pga/internal/core.evaluateBatch",
	"pga/internal/problems.EvaluateBatch",
}

// hiddenAllocCold is the production cold list.
var hiddenAllocCold = []string{
	// One-time pooled-buffer construction, guarded by a nil check.
	"pga/internal/ga.ensureBuffers",
	"pga/internal/cellular.ensureBuffers",
	// Batch-buffer construction: allocates only on first use or
	// population growth (capacity-guarded).
	"pga/internal/core.ensureBatchBuffers",
	// Adaptive copy: clones only on genome-shape mismatch (first use);
	// the steady state reuses existing storage (perf_gate_test.go
	// proves zero allocations per generation).
	"pga/internal/core.CopyGenome",
	"pga/internal/core.CopyFrom",
}

// DefaultHiddenAllocConfig returns the production hot and cold lists.
func DefaultHiddenAllocConfig() HiddenAllocConfig {
	return HiddenAllocConfig{Hot: hiddenAllocHot, Cold: hiddenAllocCold}
}

// HiddenAlloc builds the hiddenalloc analyzer with the default
// configuration.
func HiddenAlloc() *Analyzer { return HiddenAllocWith(DefaultHiddenAllocConfig()) }

// HiddenAllocWith builds the hiddenalloc analyzer with cfg (test hook).
func HiddenAllocWith(cfg HiddenAllocConfig) *Analyzer {
	var cachedFacts *Facts
	var taint map[*Node]bool
	return &Analyzer{
		Name: "hiddenalloc",
		Doc: "forbids per-birth allocation patterns (Clone calls, appends to slices " +
			"without a pre-sized capacity) inside the engines' generation hot paths; " +
			"the pooled double-buffer design keeps a steady-state step at zero heap " +
			"allocations and this rule keeps it that way",
		Run: func(pass *Pass) {
			if pass.Facts != nil && pass.Facts != cachedFacts {
				cachedFacts = pass.Facts
				// Spawn edges are excluded: the allocation budget measures
				// the generation goroutine, and spawning in a hot path is
				// its own (goroleak/perf-gate) problem.
				taint = pass.Facts.Taint(
					func(n *Node) bool { return pass.Facts.Direct(n).Allocates },
					func(n *Node) bool {
						return n.Decl != nil && n.Pkg != nil &&
							allowedFunc(cfg.Cold, n.Pkg.Path, n.Decl.Name.Name)
					},
					map[EdgeKind]bool{EdgeCall: true, EdgeRef: true},
				)
			}
			for _, file := range pass.Files {
				for _, decl := range file.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					if !allowedFunc(cfg.Hot, pass.PkgPath, fd.Name.Name) {
						continue
					}
					checkHotFunc(pass, fd)
					if pass.Facts != nil {
						checkHotCallees(pass, fd, taint)
					}
				}
			}
		},
	}
}

// checkHotCallees reports calls from a hot function (closures included)
// into module functions whose call chains allocate per invocation —
// the helper-laundering gap the local pattern scan cannot see.
func checkHotCallees(pass *Pass, fd *ast.FuncDecl, taint map[*Node]bool) {
	for _, n := range pass.Facts.Graph.Nodes {
		if n.Pkg == nil || pass.Pkg == nil || n.Pkg.Types != pass.Pkg {
			continue
		}
		if rd := rootDecl(pass, n); rd != fd {
			continue
		}
		for _, e := range n.Out {
			if !taint[e.Callee] || e.Kind == EdgeSpawn {
				continue
			}
			// Direct x.Clone() sites are already flagged by the local scan.
			if e.Site != nil {
				if sel, ok := unparen(e.Site.Fun).(*ast.SelectorExpr); ok &&
					sel.Sel.Name == "Clone" && len(e.Site.Args) == 0 {
					continue
				}
			}
			pass.Reportf(e.Pos, "hiddenalloc",
				"hot path %s calls %s, whose call chain allocates per invocation "+
					"(Clone or growing append); keep the chain allocation-free, or add "+
					"the callee to HiddenAllocConfig.Cold if it is setup-only",
				fd.Name.Name, e.Callee.Name)
		}
	}
}

// checkHotFunc reports the hidden-allocation patterns inside one hot
// function (closures included).
func checkHotFunc(pass *Pass, fd *ast.FuncDecl) {
	presized := presizedSlices(fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			if fun.Sel.Name == "Clone" && len(call.Args) == 0 {
				pass.Reportf(call.Pos(), "hiddenalloc",
					"Clone() allocates per birth inside hot path %s; copy into a pooled "+
						"buffer instead (core.CopyGenome / Individual.CopyFrom / operators.CrossInto)",
					fd.Name.Name)
			}
		case *ast.Ident:
			if fun.Name != "append" || len(call.Args) == 0 {
				return true
			}
			if id, ok := call.Args[0].(*ast.Ident); ok && presized[id.Name] {
				return true
			}
			pass.Reportf(call.Pos(), "hiddenalloc",
				"append may reallocate per birth inside hot path %s; build the slice once "+
					"with make(T, len, cap) in this function, or reuse an engine-owned buffer",
				fd.Name.Name)
		}
		return true
	})
}

// presizedSlices collects the names assigned in fd from make calls with an
// explicit capacity (make(T, len, cap)) — appends to those stay within the
// reserved storage by construction, so they are not hidden allocations.
func presizedSlices(fd *ast.FuncDecl) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok {
				continue
			}
			fn, ok := call.Fun.(*ast.Ident)
			if !ok || fn.Name != "make" || len(call.Args) < 3 {
				continue
			}
			if i < len(as.Lhs) {
				if id, ok := as.Lhs[i].(*ast.Ident); ok {
					out[id.Name] = true
				}
			}
		}
		return true
	})
	return out
}
