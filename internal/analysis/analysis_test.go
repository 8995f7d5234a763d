package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// fixturePkgPaths assigns each fixture the import path it is checked
// under — the rules are path-sensitive (scopes, allowlists, exemptions).
var fixturePkgPaths = map[string]string{
	"norawrand_bad.go":   "pga/internal/operators",
	"norawrand_ok.go":    "pga/internal/operators",
	"norawrand_chain.go": "pga/internal/operators",
	"nowallclock_bad.go": "pga/internal/operators",
	"nowallclock_ok.go":  "pga/internal/hga",
	"hiddenalloc_bad.go": "pga/internal/ga",
	"hiddenalloc_ok.go":  "pga/internal/ga",
	"ignore.go":          "pga/internal/p2p",
	"unknownignore.go":   "pga/internal/p2p",
	"purity_bad.go":      "pga/internal/operators",
	"purity_ok.go":       "pga/internal/operators",
	"purity_exempt.go":   "pga/internal/memo",
	"bareignore.go":      "pga/internal/ga",
	"lockorder_bad.go":   "pga/internal/lockfix",
	"lockorder_ok.go":    "pga/internal/lockfix",
	"lockorder_x.go":     "pga/internal/lockfix",
	"boundedres_bad.go":  "pga/internal/transport",
	"boundedres_ok.go":   "pga/internal/transport",
	"boundedres_x.go":    "pga/internal/transport",
	"auxrng.go":          "pga/internal/fixrng",
	"auxrand.go":         "pga/internal/jitter",
	"auxlock.go":         "pga/internal/lockutil",
	"auxgrow.go":         "pga/internal/growq",
}

// fixtureGroups lists the aux fixtures a fixture imports; they are
// loaded first (so the fixture importer can resolve them), analyzed
// together, and their want markers checked alongside the main file —
// the interprocedural rules need real cross-package call chains.
var fixtureGroups = map[string][]string{
	"purity_bad.go":      {"auxrng.go"},
	"purity_ok.go":       {"auxrng.go"},
	"norawrand_chain.go": {"auxrand.go"},
	"lockorder_x.go":     {"auxlock.go"},
	"boundedres_x.go":    {"auxgrow.go"},
}

// The test binary shares one file set, one stdlib source importer and
// one parse cache between the fixtures and the repository's own module
// (repoModule): stdlib packages are type-checked from source once.
var (
	fixtureFset  = token.NewFileSet()
	fixtureStd   = importer.ForCompiler(fixtureFset, "source", nil)
	parsedCache  = map[string]*ast.File{}
	checkedCache = map[string]*Package{}
	// fixtureTypes registers checked fixture packages by their fake
	// import path, so later fixtures can import earlier ones.
	fixtureTypes = map[string]*types.Package{}
)

var (
	repoOnce sync.Once
	repoMod  *Module
	repoErr  error
)

// repoModule loads and type-checks this repository's module, once per
// test binary (≈ 2 s, most of the package's test time).
func repoModule(t *testing.T) *Module {
	t.Helper()
	if testing.Short() {
		t.Skip("full-module type check in -short mode")
	}
	repoOnce.Do(func() {
		var root string
		if root, repoErr = FindModuleRoot("."); repoErr == nil {
			repoMod, repoErr = loadModule(root, fixtureFset, fixtureStd)
		}
	})
	if repoErr != nil {
		t.Fatal(repoErr)
	}
	return repoMod
}

// fixtureImporter resolves fixture-internal import paths from the
// already-checked fixtures and everything else from the stdlib source
// importer — the test-side analogue of moduleImporter.
type fixtureImporter struct{}

func (fixtureImporter) Import(path string) (*types.Package, error) {
	if p, ok := fixtureTypes[path]; ok {
		return p, nil
	}
	return fixtureStd.Import(path)
}

// parseFixture parses testdata/name once.
func parseFixture(t *testing.T, name string) *ast.File {
	t.Helper()
	if f, ok := parsedCache[name]; ok {
		return f
	}
	path := filepath.Join("testdata", name)
	f, err := parser.ParseFile(fixtureFset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	parsedCache[name] = f
	return f
}

// loadFixtureAs type-checks testdata/name as a single-file package with
// the given import path.
func loadFixtureAs(t *testing.T, name, pkgPath string) *Package {
	t.Helper()
	key := name + "@" + pkgPath
	if p, ok := checkedCache[key]; ok {
		return p
	}
	pkg := &Package{
		Path:  pkgPath,
		Dir:   "testdata",
		Fset:  fixtureFset,
		Files: []*ast.File{parseFixture(t, name)},
	}
	checkPackage(pkg, fixtureImporter{})
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("fixture %s (%s): type errors: %v", name, pkgPath, pkg.TypeErrors)
	}
	checkedCache[key] = pkg
	fixtureTypes[pkgPath] = pkg.Types
	return pkg
}

// fixtureGroupPkgs loads a fixture together with its aux fixtures, aux
// packages first.
func fixtureGroupPkgs(t *testing.T, name string) []*Package {
	t.Helper()
	var pkgs []*Package
	for _, aux := range fixtureGroups[name] {
		pkgs = append(pkgs, loadFixture(t, aux))
	}
	return append(pkgs, loadFixture(t, name))
}

// loadFixture loads testdata/name under its default import path.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	pkgPath, ok := fixturePkgPaths[name]
	if !ok {
		t.Fatalf("fixture %s has no entry in fixturePkgPaths", name)
	}
	return loadFixtureAs(t, name, pkgPath)
}

// runFixture runs one analyzer over one fixture and its aux packages.
func runFixture(t *testing.T, a *Analyzer, name string) []Diagnostic {
	t.Helper()
	return RunAnalyzers("", fixtureGroupPkgs(t, name), []*Analyzer{a})
}

// wantLines scans a fixture for `// want rule1 rule2` markers and
// returns the line numbers expecting a finding of rule.
func wantLines(t *testing.T, name, rule string) map[int]bool {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("read fixture %s: %v", name, err)
	}
	want := map[int]bool{}
	for i, line := range strings.Split(string(data), "\n") {
		_, marker, ok := strings.Cut(line, "// want ")
		if !ok {
			continue
		}
		for _, r := range strings.Fields(marker) {
			if r == rule {
				want[i+1] = true
			}
		}
	}
	return want
}

// checkRule asserts that analyzer a reports on exactly the lines marked
// `// want <rule>` across the fixture and its aux files — the seeded
// violations are caught and the corrected code stays silent.
func checkRule(t *testing.T, a *Analyzer, fixture string) {
	t.Helper()
	files := append(append([]string(nil), fixtureGroups[fixture]...), fixture)
	diags := runFixture(t, a, fixture)
	want := map[string]map[int]bool{}
	for _, f := range files {
		want[filepath.Join("testdata", f)] = wantLines(t, f, a.Name)
	}
	got := map[string]map[int]bool{}
	for _, d := range diags {
		if d.Rule != a.Name {
			t.Errorf("%s: diagnostic with rule %q from analyzer %q", fixture, d.Rule, a.Name)
		}
		if got[d.File] == nil {
			got[d.File] = map[int]bool{}
		}
		got[d.File][d.Line] = true
	}
	for file, lines := range want {
		for line := range lines {
			if !got[file][line] {
				t.Errorf("%s:%d: expected a %s finding, got none", file, line, a.Name)
			}
		}
	}
	for _, d := range diags {
		if !want[d.File][d.Line] {
			t.Errorf("%s:%d: unexpected finding: %s", d.File, d.Line, d)
		}
	}
}

// TestBareIgnores pins the ignore-justification check: every directive
// in bareignore.go whose rule list is not followed by a justification is
// reported under the unsuppressible "ignore" rule — including the one
// sitting directly under a justified `//pgalint:ignore ignore` attempt.
// Expectations are derived by scanning the fixture (a `// want` marker
// on a directive line would read as its justification).
func TestBareIgnores(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "bareignore.go"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]bool{}
	for i, line := range strings.Split(string(data), "\n") {
		_, rest, ok := strings.Cut(line, ignoreDirective)
		if !ok {
			continue
		}
		if len(strings.Fields(rest)) < 2 {
			want[i+1] = true
		}
	}
	if len(want) != 4 {
		t.Fatalf("fixture drifted: expected 4 bare directives, found %d", len(want))
	}
	diags := RunAnalyzers("", fixtureGroupPkgs(t, "bareignore.go"), nil)
	got := map[int]bool{}
	for _, d := range diags {
		if d.Rule != "ignore" {
			t.Errorf("unexpected rule %q in %s", d.Rule, d)
			continue
		}
		got[d.Line] = true
	}
	for line := range want {
		if !got[line] {
			t.Errorf("bareignore.go:%d: bare directive not reported", line)
		}
	}
	for line := range got {
		if !want[line] {
			t.Errorf("bareignore.go:%d: unexpected ignore finding", line)
		}
	}
}

func TestIgnoreDirectives(t *testing.T) {
	// ignore.go holds four wall-clock reads: three suppressed
	// (above-line, same-line, "all"), one covered only by a misdirected
	// ignore.
	checkRule(t, NoWallClock(), "ignore.go")
	diags := runFixture(t, NoWallClock(), "ignore.go")
	if len(diags) != 1 {
		t.Fatalf("ignore.go: want exactly 1 surviving finding, got %d: %v", len(diags), diags)
	}
}

// TestUnknownRuleIgnores: a directive naming a rule that does not exist
// is an "ignore" finding, and the known names beside it still suppress.
func TestUnknownRuleIgnores(t *testing.T) {
	const fixture = "unknownignore.go"
	got := map[string]bool{}
	for _, d := range runFixture(t, NoWallClock(), fixture) {
		got[fmt.Sprintf("%d %s", d.Line, d.Rule)] = true
	}
	want := map[string]bool{}
	for _, rule := range []string{"ignore", "nowallclock"} {
		for line := range wantLines(t, fixture, rule) {
			want[fmt.Sprintf("%d %s", line, rule)] = true
		}
	}
	if !maps.Equal(got, want) {
		t.Errorf("%s: findings %v, want %v", fixture, got, want)
	}
}

func TestPathMatch(t *testing.T) {
	cases := []struct {
		pattern, path string
		want          bool
	}{
		{"pga/internal/rng", "pga/internal/rng", true},
		{"pga/internal/rng", "pga/internal/rng2", false},
		{"pga/cmd/...", "pga/cmd/pgalint", true},
		{"pga/cmd/...", "pga/cmd", true},
		{"pga/cmd/...", "pga/cmdx", false},
		{"pga/internal/...", "pga/internal/island", true},
	}
	for _, c := range cases {
		if got := pathMatch(c.pattern, c.path); got != c.want {
			t.Errorf("pathMatch(%q, %q) = %v, want %v", c.pattern, c.path, got, c.want)
		}
	}
}

// TestRepositoryIsClean is the same gate CI runs via `go run
// ./cmd/pgalint ./...`: the module itself must satisfy its own
// determinism and concurrency contracts (modulo justified ignores).
func TestRepositoryIsClean(t *testing.T) {
	mod := repoModule(t)
	for _, pkg := range mod.Pkgs {
		for _, te := range pkg.TypeErrors {
			t.Errorf("%s: type error: %v", pkg.Path, te)
		}
	}
	diags := RunAnalyzers(mod.Root, mod.Pkgs, Registry())
	for _, d := range diags {
		t.Errorf("repository violation: %s", d)
	}
}

func TestLoadModuleShape(t *testing.T) {
	mod := repoModule(t)
	if mod.Path != "pga" {
		t.Fatalf("module path = %q, want pga", mod.Path)
	}
	seen := map[string]int{}
	for i, pkg := range mod.Pkgs {
		seen[pkg.Path] = i
	}
	for _, path := range []string{"pga", "pga/internal/rng", "pga/internal/island", "pga/cmd/pgalint"} {
		if _, ok := seen[path]; !ok {
			t.Errorf("LoadModule missed package %s", path)
		}
	}
	// Dependency-first order: rng precedes island, which precedes pga.
	if !(seen["pga/internal/rng"] < seen["pga/internal/island"] && seen["pga/internal/island"] < seen["pga"]) {
		t.Errorf("packages not in dependency order: rng=%d island=%d pga=%d",
			seen["pga/internal/rng"], seen["pga/internal/island"], seen["pga"])
	}
}

// TestRuleListsResolve holds every rule's built-in list against the
// loaded module: a package pattern must match a package, a function
// entry a declaration. A rename that leaves a rule guarding nothing
// fails here instead of passing silently.
func TestRuleListsResolve(t *testing.T) {
	mod := repoModule(t)
	nodeNames := map[string]bool{} // "pkg/path.Recv.Method": receiver-sensitive lists
	funcNames := map[string]bool{} // "pkg/path.Method": allowedFunc's receiver-insensitive form
	for _, n := range BuildGraph(mod.Pkgs).Nodes {
		if n.Decl != nil {
			nodeNames[n.Name] = true
			funcNames[n.Pkg.Path+"."+n.Decl.Name.Name] = true
		}
	}
	lists := []struct {
		name    string
		entries []string
		funcs   map[string]bool // how the rule matches the list's function entries
	}{
		{"boundedResScope", boundedResScope, nil},
		{"boundedResCold", boundedResCold, nodeNames},
		{"rawRandExempt", rawRandExempt, nil},
		{"wallClockAllow", wallClockAllow, funcNames},
		{"hiddenAllocHot", hiddenAllocHot, funcNames},
		{"hiddenAllocCold", hiddenAllocCold, funcNames},
		{"purityExempt", purityExempt, funcNames},
	}
	for _, l := range lists {
		for _, entry := range l.entries {
			if hasFuncQualifier(entry) {
				if !l.funcs[entry] {
					t.Errorf("%s: %q names no declaration in the module", l.name, entry)
				}
				continue
			}
			if !slices.ContainsFunc(mod.Pkgs, func(pkg *Package) bool { return pathMatch(entry, pkg.Path) }) {
				t.Errorf("%s: %q matches no package of the module", l.name, entry)
			}
		}
	}
}
