package analysis

// norawrand: all randomness must flow through internal/rng.
//
// The survey's experiments replay bit-for-bit because every deme, worker
// and operator draws from its own seeded, splittable *rng.Source stream
// split deterministically from the master seed. One call into the
// globally-seeded math/rand (or, worse, crypto/rand) anywhere on an
// evolution path silently breaks that guarantee while every test still
// passes — exactly the class of regression a linter has to catch.

import (
	"go/ast"
	"strconv"
	"strings"
)

// forbiddenRandImports are the import paths norawrand rejects. math/rand
// and math/rand/v2 carry process-global, racy default sources;
// crypto/rand is nondeterministic by construction.
var forbiddenRandImports = map[string]string{
	"math/rand":    "process-global seeding breaks seeded replay",
	"math/rand/v2": "process-global seeding breaks seeded replay",
	"crypto/rand":  "nondeterministic by construction",
}

// rawRandExempt lists the import-path patterns (exact or "prefix/...")
// where the forbidden imports are allowed: internal/rng itself, the one
// place allowed to own generator internals.
var rawRandExempt = []string{"pga/internal/rng"}

// NoRawRand builds the norawrand analyzer.
func NoRawRand() *Analyzer {
	// Interprocedural part: raw-rand taint seeds at direct uses in
	// non-exempt packages and flows up call chains. Exempt packages are
	// sanctioned wrappers (internal/rng owns generator internals), so
	// they neither seed nor carry taint.
	var cachedFacts *Facts
	var taint map[*Node]bool
	return &Analyzer{
		Name: "norawrand",
		Doc: "forbids math/rand, math/rand/v2 and crypto/rand outside internal/rng; " +
			"all randomness must come from seeded, splittable *rng.Source streams " +
			"so runs replay bit-for-bit per seed — helper chains included",
		Run: func(pass *Pass) {
			if pathMatchAny(rawRandExempt, pass.PkgPath) {
				return
			}
			if pass.Facts != nil {
				if pass.Facts != cachedFacts {
					cachedFacts = pass.Facts
					taint = pass.Facts.Taint(
						func(n *Node) bool { return pass.Facts.Direct(n).RawRand },
						func(n *Node) bool { return n.Pkg == nil || pathMatchAny(rawRandExempt, n.Pkg.Path) },
						map[EdgeKind]bool{EdgeCall: true, EdgeSpawn: true, EdgeRef: true},
					)
				}
				for _, n := range pass.Facts.Graph.Nodes {
					if n.Pkg == nil || pass.Pkg == nil || n.Pkg.Types != pass.Pkg {
						continue
					}
					for _, e := range n.Out {
						// Same-package callees already carry their own
						// direct-use reports on the same screen.
						if taint[e.Callee] && e.Callee.Pkg.Path != pass.PkgPath {
							pass.Reportf(e.Pos, "norawrand",
								"call into %s, whose call chain draws from math/rand or "+
									"crypto/rand; route randomness through a seeded *rng.Source",
								e.Callee.Name)
						}
					}
				}
			}
			for _, file := range pass.Files {
				for _, imp := range file.Imports {
					path, err := strconv.Unquote(imp.Path.Value)
					if err != nil {
						continue
					}
					why, forbidden := forbiddenRandImports[path]
					if !forbidden {
						continue
					}
					pass.Reportf(imp.Pos(), "norawrand",
						"import of %q (%s); draw randomness from a seeded *rng.Source (internal/rng) instead",
						path, why)
					// Also flag each use so the offending call sites are
					// visible, not just the import line.
					reportRandUses(pass, file, imp)
				}
			}
		},
	}
}

// reportRandUses flags selector uses of the forbidden import (e.g.
// rand.New, rand.Intn) within file.
func reportRandUses(pass *Pass, file *ast.File, imp *ast.ImportSpec) {
	path, _ := strconv.Unquote(imp.Path.Value)
	ast.Inspect(file, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		if pkg := usedPackage(pass.Info, id); pkg != nil && pkg.Path() == path {
			pass.Reportf(sel.Pos(), "norawrand",
				"use of %s.%s; replace with the equivalent *rng.Source method",
				lastSegment(path), sel.Sel.Name)
		}
		return true
	})
}

// lastSegment returns the final element of an import path.
func lastSegment(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
