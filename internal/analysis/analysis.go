// Package analysis implements pgalint, the framework-specific static
// analysis suite behind cmd/pgalint.
//
// The library's reproducibility story rests on two invariants that the Go
// compiler cannot check:
//
//  1. Determinism — every stochastic choice must be drawn from a seeded,
//     splittable *rng.Source stream (internal/rng), and no evolution path
//     may observe the wall clock. This is what lets experiments E1–E15
//     replay bit-for-bit for a given seed.
//  2. Non-blocking communication — inter-deme messaging must never be able
//     to deadlock: mutexes are taken in one global order and released on
//     every path, and the communication hot paths run in bounded memory.
//     That sends never block, goroutines are WaitGroup-registered or
//     cancellable, and per-goroutine RNG streams are never shared is held
//     by the runtime tests instead (DESIGN §7, rule census).
//
// PR 1 added the runtime half of this contract (internal/supervise); this
// package is the compile-time half. It type-checks every package of the
// module using only the standard library (go/parser, go/ast, go/types —
// the module stays zero-dependency) and runs a registry of analyzers,
// each reporting "file:line: [rule] message" diagnostics with optional
// machine-readable JSON output.
//
// Diagnostics are suppressed per line with a directive comment:
//
//	//pgalint:ignore rule1,rule2 justification
//
// placed either on the offending line or on the line immediately above
// it. The justification is mandatory and machine-checked: a directive
// whose rule list is not followed by a non-empty justification is itself
// reported (rule name "ignore"), and that finding cannot be suppressed —
// an ignore asserts the pattern is provably safe, and the assertion is
// worthless without the argument.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding of one rule. File is relative to the module
// root so output (and the JSON golden files) are stable across machines.
type Diagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

// String renders the canonical "file:line:col: [rule] message" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Rule, d.Message)
}

// Pass is the per-package unit of work handed to each analyzer.
type Pass struct {
	// Fset maps token positions for every file of the package.
	Fset *token.FileSet
	// Files are the package's non-test source files. pgalint analyzes
	// production code only; _test.go files may intentionally use time,
	// goroutine and randomness patterns the rules forbid.
	Files []*ast.File
	// PkgPath is the import path (e.g. "pga/internal/island").
	PkgPath string
	// Pkg is the type-checked package; nil if type checking failed hard.
	Pkg *types.Package
	// Info holds type information for the files. Always non-nil, but
	// possibly partial when the package had type errors — analyzers must
	// tolerate missing entries.
	Info *types.Info
	// Facts is the interprocedural layer (call graph + summaries),
	// computed once per RunAnalyzers call over every loaded package and
	// shared by all passes. Never nil under RunAnalyzers; may be nil when
	// a rule is driven manually.
	Facts *Facts

	report func(pos token.Pos, rule, msg string)
}

// Reportf records a diagnostic for the given position.
func (p *Pass) Reportf(pos token.Pos, rule, format string, args ...any) {
	p.report(pos, rule, fmt.Sprintf(format, args...))
}

// Analyzer is one named rule.
type Analyzer struct {
	// Name is the rule identifier used in output and ignore directives.
	Name string
	// Doc is a one-paragraph description of the invariant the rule
	// protects.
	Doc string
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(pass *Pass)
}

// Registry returns the default analyzer suite with default configuration.
func Registry() []*Analyzer {
	return []*Analyzer{
		NoRawRand(),
		NoWallClock(),
		HiddenAlloc(),
		Purity(),
		LockOrder(),
		BoundedRes(),
	}
}

// ignoreDirective is the comment prefix of a suppression.
const ignoreDirective = "pgalint:ignore"

// ignoreIndex maps file → line → set of suppressed rule names ("all"
// suppresses every rule).
type ignoreIndex map[string]map[int]map[string]bool

// buildIgnoreIndex scans the files' comments for //pgalint:ignore
// directives. A directive suppresses its rules on the directive's own
// line and on the line immediately below, so it can sit either at the end
// of the offending line or on its own line above it.
func buildIgnoreIndex(fset *token.FileSet, files []*ast.File) ignoreIndex {
	idx := ignoreIndex{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, ignoreDirective) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, ignoreDirective))
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				m := idx[pos.Filename]
				if m == nil {
					m = map[int]map[string]bool{}
					idx[pos.Filename] = m
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					set := m[line]
					if set == nil {
						set = map[string]bool{}
						m[line] = set
					}
					for _, r := range strings.Split(fields[0], ",") {
						if r = strings.TrimSpace(r); r != "" {
							set[r] = true
						}
					}
				}
			}
		}
	}
	return idx
}

// suppressed reports whether rule is ignored at the given position.
func (idx ignoreIndex) suppressed(pos token.Position, rule string) bool {
	m := idx[pos.Filename]
	if m == nil {
		return false
	}
	set := m[pos.Line]
	if set == nil {
		return false
	}
	return set[rule] || set["all"]
}

// RunAnalyzers executes every analyzer over every package and returns the
// surviving (non-suppressed) diagnostics sorted by file, line, column and
// rule. File paths are reported relative to root when possible.
func RunAnalyzers(root string, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	diags, _ := RunAnalyzersTimed(root, pkgs, pkgs, analyzers, nil)
	return diags
}

// RuleTiming records one rule's total wall time across all packages.
type RuleTiming struct {
	// Rule is the rule name; the synthetic "(summaries)" entry covers
	// call-graph and summary construction, shared by every rule.
	Rule string
	// Nanos is the elapsed wall time in nanoseconds.
	Nanos int64
}

// RunAnalyzersTimed is RunAnalyzers with a selection and per-rule timing.
// The call graph and summaries are built over all — normally the whole
// module — and the rules report on pkgs only, a subset of all: linting
// one package must find what linting the module finds there, and the
// chains that make a finding usually leave the package. The clock is
// injected (monotonic nanoseconds, e.g. time.Now().UnixNano from the
// caller) because this package is itself subject to the nowallclock
// contract; a nil now skips timing.
func RunAnalyzersTimed(root string, all, pkgs []*Package, analyzers []*Analyzer, now func() int64) ([]Diagnostic, []RuleTiming) {
	var diags []Diagnostic
	var timings []RuleTiming
	clock := func() int64 {
		if now == nil {
			return 0
		}
		return now()
	}

	start := clock()
	facts := ComputeFacts(all)
	ignores := make([]ignoreIndex, len(pkgs))
	passes := make([]*Pass, len(pkgs))
	for i, pkg := range pkgs {
		ignores[i] = buildIgnoreIndex(pkg.Fset, pkg.Files)
		passes[i] = &Pass{
			Fset:    pkg.Fset,
			Files:   pkg.Files,
			PkgPath: pkg.Path,
			Pkg:     pkg.Types,
			Info:    pkg.Info,
			Facts:   facts,
		}
		// The justification check is part of the core contract, not a
		// registry rule, and deliberately bypasses suppression: an ignore
		// cannot ignore its own missing justification.
		diags = append(diags, checkIgnoreJustifications(root, pkg)...)
	}
	if now != nil {
		timings = append(timings, RuleTiming{Rule: "(summaries)", Nanos: clock() - start})
	}

	for _, a := range analyzers {
		ruleStart := clock()
		for i, pkg := range pkgs {
			pass := passes[i]
			idx := ignores[i]
			pass.report = func(pos token.Pos, rule, msg string) {
				p := pkg.Fset.Position(pos)
				if idx.suppressed(p, rule) {
					return
				}
				diags = append(diags, Diagnostic{
					File:    relPath(root, p.Filename),
					Line:    p.Line,
					Col:     p.Column,
					Rule:    rule,
					Message: msg,
				})
			}
			a.Run(pass)
		}
		if now != nil {
			timings = append(timings, RuleTiming{Rule: a.Name, Nanos: clock() - ruleStart})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
	return diags, timings
}

// checkIgnoreJustifications reports every //pgalint:ignore directive in
// pkg whose rule list is not followed by a non-empty justification, or
// names a rule that does not exist. The names a directive may list are
// the registered rules, "all", and "ignore" (the name of this check,
// which suppresses nothing).
func checkIgnoreJustifications(root string, pkg *Package) []Diagnostic {
	known := map[string]bool{"all": true, "ignore": true}
	for _, a := range Registry() {
		known[a.Name] = true
	}
	var diags []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, ignoreDirective) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, ignoreDirective))
				fields := strings.Fields(rest)
				msg := ""
				switch {
				case len(fields) == 0:
					msg = "pgalint:ignore directive names no rules; write " +
						"//pgalint:ignore rule1,rule2 <justification>"
				case len(fields) == 1:
					msg = "pgalint:ignore directive has no justification; an ignore " +
						"asserts the pattern is provably safe — state why"
				default:
					for _, r := range strings.Split(fields[0], ",") {
						if r = strings.TrimSpace(r); r != "" && !known[r] {
							msg = fmt.Sprintf("pgalint:ignore directive names unknown rule %q, "+
								"which suppresses nothing; `pgalint -rules` lists the rules", r)
							break
						}
					}
				}
				if msg == "" {
					continue
				}
				p := pkg.Fset.Position(c.Pos())
				diags = append(diags, Diagnostic{
					File:    relPath(root, p.Filename),
					Line:    p.Line,
					Col:     p.Column,
					Rule:    "ignore",
					Message: msg,
				})
			}
		}
	}
	return diags
}

// CountIgnoreDirectives counts the //pgalint:ignore directives across
// pkgs — the metric behind the suppression ratchet (`pgalint -baseline`):
// the count may only grow by touching the checked-in baseline in review.
func CountIgnoreDirectives(pkgs []*Package) int {
	count := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if strings.HasPrefix(text, ignoreDirective) {
						count++
					}
				}
			}
		}
	}
	return count
}

// relPath makes path relative to root, falling back to the original.
func relPath(root, path string) string {
	if root == "" {
		return path
	}
	rel, err := filepath.Rel(root, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return path
	}
	return filepath.ToSlash(rel)
}

// pathMatch reports whether pkgPath matches pattern: an exact import path,
// or a "prefix/..." wildcard covering the prefix and everything below it.
func pathMatch(pattern, pkgPath string) bool {
	if strings.HasSuffix(pattern, "/...") {
		prefix := strings.TrimSuffix(pattern, "/...")
		return pkgPath == prefix || strings.HasPrefix(pkgPath, prefix+"/")
	}
	return pkgPath == pattern
}

// pathMatchAny reports whether pkgPath matches any of patterns.
func pathMatchAny(patterns []string, pkgPath string) bool {
	for _, pattern := range patterns {
		if pathMatch(pattern, pkgPath) {
			return true
		}
	}
	return false
}

// enclosingFunc returns the FuncDecl of file that contains pos, or nil.
func enclosingFunc(file *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
			return fd
		}
	}
	return nil
}

// usedPackage resolves an identifier to the package it names (import
// alias), or nil.
func usedPackage(info *types.Info, id *ast.Ident) *types.Package {
	if info == nil {
		return nil
	}
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn.Imported()
	}
	return nil
}
