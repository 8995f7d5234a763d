package pga

// TestSourceScan holds four source rules over every non-test Go file of
// the module (testdata and dot-directories skipped, as the go tool does),
// three of the replay contract and one of its size:
//
//   - rawrand: no file imports math/rand, math/rand/v2 or crypto/rand.
//     Every draw comes from a seeded internal/rng stream, which owns its
//     generator outright, so nothing needs an exemption.
//   - wallclock: time.Now, Since, Until, Sleep, After, AfterFunc,
//     NewTimer, NewTicker and Tick appear only in the packages whose job
//     is real time (wallClockPackages) or inside the three run-
//     orchestration functions that time Elapsed around the deterministic
//     loop (wallClockFuncs). A clock read in a step, an operator or a
//     fitness function makes the trajectory depend on machine load.
//   - unbufferedchan: in the communication packages every make(chan T)
//     has a capacity; a rendezvous couples sender and receiver. Close-only
//     signals (chan struct{}) are exempt.
//   - testonly: every exported function and method declared under
//     internal/ is referenced by name in some non-test file, so no code
//     that only tests reach stays in the library (and a mutant in it
//     cannot count as killed). Names are matched, not types: a package
//     function counts when its package names it or an importer writes
//     pkg.F; a method counts when any selector .M or interface method M
//     outside a package qualifier carries its name. Methods named by a
//     standard-library interface (stdlibMethods) are exempt, and
//     testOnlyAllowed holds the few test-only names that stay, with the
//     reason each does.
//
// Allowlisted helpers that read the clock and are called from evolution
// code are sanctioned, not scanned: supervise.(*Supervisor).RunStep (the
// heartbeat deadline) and Restart (backoff sleep), engine.Loop and
// island.(*Model).runFree (Elapsed). None of them feeds a time into a
// draw or a fitness; DESIGN §7 lists the callers.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var rawRandImports = map[string]bool{"math/rand": true, "math/rand/v2": true, "crypto/rand": true}

var clockCalls = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true, "After": true,
	"AfterFunc": true, "NewTimer": true, "NewTicker": true, "Tick": true,
}

// wallClockPackages may read the clock anywhere: the command-line
// drivers, the experiment harness and statistics, supervision
// (deadlines, backoff) and the wire transport (real I/O).
var wallClockPackages = []string{"cmd/...", "internal/exp", "internal/stats", "internal/supervise", "internal/transport"}

// wallClockFuncs may read the clock outside those packages.
var wallClockFuncs = []string{"internal/engine.Loop", "internal/hga.(*Model).Run", "internal/island.(*Model).runFree"}

// chanPackages are the communication packages whose channels must be
// buffered.
var chanPackages = []string{"internal/transport", "internal/supervise", "internal/island"}

// stdlibMethods are methods the standard library calls through its
// interfaces (sort, fmt, errors, encoding/json); no module file names them.
var stdlibMethods = map[string]bool{
	"Len": true, "Less": true, "Swap": true, "String": true, "Error": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
}

// testOnlyAllowed are the exported functions and methods under internal/
// that only tests call and that stay, each with its reason.
var testOnlyAllowed = map[string]string{
	"internal/core.RandomPopulation":         "fixture of several packages' tests, which cannot share a test file",
	"internal/genome.IdentityPermutation":    "fixture of several packages' tests, which cannot share a test file",
	"internal/genome.(*BitString).Flip":      "fixture of several packages' tests, which cannot share a test file",
	"internal/operators.OperatorTypeName":    "input of the operator purity and spec-key contract tests",
	"internal/operators.RegisteredOperators": "input of the operator purity and spec-key contract tests",
	"internal/operators.SpecEntries":         "input of the operator purity and spec-key contract tests",
	"internal/sim.Dominates":                 "the reference the rank archive's property test checks it against",
	"internal/mallocs.Count":                 "the allocation gates' counter",
	"internal/mallocs.Bytes":                 "the allocation gates' counter",
	"internal/persist.(*Checkpoint).Marshal": "encode half of the versioned, fuzzed on-disk checkpoint format",
	"internal/persist.(*Checkpoint).Restore": "decode half of the versioned, fuzzed on-disk checkpoint format",
}

// sourceFile is one non-test Go file: its package directory relative to
// the module root ("." for the root package) and its path.
type sourceFile struct{ dir, path string }

func moduleSources(t *testing.T) []sourceFile {
	t.Helper()
	var out []sourceFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			out = append(out, sourceFile{dir: filepath.ToSlash(filepath.Dir(path)), path: path})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) < 100 {
		t.Fatalf("found %d non-test Go files; the walk is not covering the module", len(out))
	}
	return out
}

func inPackages(dir string, pkgs []string) bool {
	for _, p := range pkgs {
		if dir == p || (strings.HasSuffix(p, "/...") && (dir == p[:len(p)-4] || strings.HasPrefix(dir, p[:len(p)-3]))) {
			return true
		}
	}
	return false
}

func TestSourceScan(t *testing.T) {
	files := moduleSources(t)
	t.Run("rawrand", func(t *testing.T) {
		for _, f := range files {
			fset := token.NewFileSet()
			file, err := parser.ParseFile(fset, f.path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, msg := range rawRandFindings(fset, file) {
				t.Error(msg)
			}
		}
	})
	t.Run("wallclock", func(t *testing.T) {
		used := map[string]bool{}
		for _, f := range files {
			if inPackages(f.dir, wallClockPackages) {
				continue
			}
			fset, file := parseFull(t, f.path)
			for _, msg := range clockFindings(fset, file, f.dir, used) {
				t.Error(msg)
			}
		}
		for _, fn := range wallClockFuncs {
			if !used[fn] {
				t.Errorf("%s is allowlisted but reads no clock; drop it from wallClockFuncs", fn)
			}
		}
	})
	t.Run("unbufferedchan", func(t *testing.T) {
		for _, f := range files {
			if !inPackages(f.dir, chanPackages) {
				continue
			}
			fset, file := parseFull(t, f.path)
			for _, msg := range unbufferedChanFindings(fset, file) {
				t.Error(msg)
			}
		}
	})
	t.Run("testonly", func(t *testing.T) {
		fset := token.NewFileSet()
		var parsed []parsedFile
		for _, f := range files {
			file, err := parser.ParseFile(fset, f.path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			parsed = append(parsed, parsedFile{f.dir, file})
		}
		used := map[string]bool{}
		for _, msg := range testOnlyFindings(fset, parsed, testOnlyAllowed, used) {
			t.Error(msg)
		}
		for fn := range testOnlyAllowed {
			if !used[fn] {
				t.Errorf("%s is allowlisted but a non-test file references it; drop it from testOnlyAllowed", fn)
			}
		}
	})
}

// TestSourceScanCatches feeds each rule one violation and one legal
// form, so a scan that matches nothing cannot pass as clean.
func TestSourceScanCatches(t *testing.T) {
	const src = `package p

import (
	r "math/rand/v2"
	"time"
)

func Step() int {
	if time.Since(time.Time{}) > 0 { return r.IntN(2) }
	return 0
}

func (m *Model) runFree() time.Duration { return time.Since(time.Now()) }

func chans() {
	_ = make(chan int)
	_ = make(chan struct{})
	_ = make(chan []byte, 4)
}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	count := func(rule string, got []string, want int) {
		if len(got) != want {
			t.Errorf("%s: %d findings, want %d: %q", rule, len(got), want, got)
		}
	}
	count("rawrand", rawRandFindings(fset, file), 1)
	used := map[string]bool{}
	count("wallclock", clockFindings(fset, file, "internal/island", used), 1)
	if !used["internal/island.(*Model).runFree"] {
		t.Error("wallclock: the allowlisted runFree was not matched")
	}
	count("unbufferedchan", unbufferedChanFindings(fset, file), 1)

	// testonly: Seeded is called by no file, Kept only by tests but
	// allowlisted; the rest are referenced in the legal forms.
	const lib = `package p

type T struct{}

func Used()               {}
func Bare()               {}
func Seeded()             {}
func Kept()               {}
func (T) String() string  { return "" }
func (*T) Method()        {}
func (*T) ViaInterface()  {}
func helper()             { Bare() }
`
	const caller = `package main

import q "pga/internal/p"

type viaInterface interface{ ViaInterface() }

func main() {
	q.Used()
	var t q.T
	t.Method()
}
`
	fset = token.NewFileSet()
	var parsed []parsedFile
	for _, f := range []struct{ dir, src string }{{"internal/p", lib}, {"cmd/x", caller}} {
		file, err := parser.ParseFile(fset, f.dir+"/x.go", f.src, 0)
		if err != nil {
			t.Fatal(err)
		}
		parsed = append(parsed, parsedFile{f.dir, file})
	}
	used = map[string]bool{}
	got := testOnlyFindings(fset, parsed, map[string]string{"internal/p.Kept": "fixture"}, used)
	count("testonly", got, 1)
	if len(got) == 1 && !strings.Contains(got[0], "internal/p.Seeded") {
		t.Errorf("testonly: flagged %q, want internal/p.Seeded", got[0])
	}
	if !used["internal/p.Kept"] {
		t.Error("testonly: the allowlisted Kept was not matched")
	}
}

// parsedFile is one parsed non-test file and its package directory.
type parsedFile struct {
	dir  string
	file *ast.File
}

// testOnlyFindings reports every exported function and method declared
// under internal/ in files that no file of files references by name,
// except stdlibMethods and those allowed lists, which it marks in used.
func testOnlyFindings(fset *token.FileSet, files []parsedFile, allowed map[string]string, used map[string]bool) []string {
	funcRefs := map[string]bool{}   // "dir.F": a package function named in or into its package
	methodRefs := map[string]bool{} // "M": a selector or interface method carrying the name
	for _, f := range files {
		imports := map[string]string{} // local name → module-relative directory
		for _, imp := range f.file.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			name := path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = strings.TrimPrefix(path, "pga/")
		}
		declared := map[*ast.Ident]bool{}
		for _, d := range f.file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				declared[fd.Name] = true
			}
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && x.Obj == nil && imports[x.Name] != "" {
					funcRefs[imports[x.Name]+"."+n.Sel.Name] = true
					return false
				}
				methodRefs[n.Sel.Name] = true
				ast.Inspect(n.X, visit)
				return false
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, id := range m.Names {
						methodRefs[id.Name] = true
					}
				}
			case *ast.Ident:
				if !declared[n] {
					funcRefs[f.dir+"."+n.Name] = true
				}
			}
			return true
		}
		ast.Inspect(f.file, visit)
	}
	var out []string
	for _, f := range files {
		if !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		for _, d := range f.file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil && (stdlibMethods[name] || methodRefs[name]) || fd.Recv == nil && funcRefs[f.dir+"."+name] {
				continue
			}
			fn := f.dir + "." + funcName(fd)
			if _, ok := allowed[fn]; ok {
				used[fn] = true
				continue
			}
			out = append(out, fmt.Sprintf("%s: %s is referenced by no non-test file; delete it, or move it into a _test.go file",
				fset.Position(fd.Pos()), fn))
		}
	}
	return out
}

func parseFull(t *testing.T, path string) (*token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return fset, file
}

func rawRandFindings(fset *token.FileSet, file *ast.File) []string {
	var out []string
	for _, imp := range file.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); rawRandImports[path] {
			out = append(out, fmt.Sprintf("%s: imports %s; draw from an internal/rng stream", fset.Position(imp.Pos()), path))
		}
	}
	return out
}

// clockFindings reports the clock reads of one file of package dir,
// outside wallClockFuncs, and marks in used each allowlisted function
// that reads the clock.
func clockFindings(fset *token.FileSet, file *ast.File, dir string, used map[string]bool) []string {
	local := ""
	for _, imp := range file.Imports {
		if imp.Path.Value != `"time"` {
			continue
		}
		local = "time"
		if imp.Name != nil {
			local = imp.Name.Name
		}
	}
	if local == "" || local == "_" {
		return nil
	}
	if local == "." {
		return []string{fmt.Sprintf("%s: dot-imports time, which this scan cannot check", fset.Position(file.Package))}
	}
	var out []string
	for _, decl := range file.Decls {
		fn := dir + ".(package level)"
		if fd, ok := decl.(*ast.FuncDecl); ok {
			fn = dir + "." + funcName(fd)
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !clockCalls[sel.Sel.Name] {
				return true
			}
			// A package name is unresolved in the file's scope; a local
			// variable that shadows it is not.
			if id, ok := sel.X.(*ast.Ident); !ok || id.Name != local || id.Obj != nil {
				return true
			}
			for _, allowed := range wallClockFuncs {
				if fn == allowed {
					used[fn] = true
					return true
				}
			}
			out = append(out, fmt.Sprintf("%s: time.%s in %s; the trajectory must not depend on the wall clock",
				fset.Position(sel.Pos()), sel.Sel.Name, fn))
			return true
		})
	}
	return out
}

// funcName renders a declaration as Name, T.Name or (*T).Name.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	if idx, ok := typ.(*ast.IndexExpr); ok { // generic receiver T[P]
		typ = idx.X
	}
	if star, ok := typ.(*ast.StarExpr); ok {
		if id, ok := star.X.(*ast.Ident); ok {
			return "(*" + id.Name + ")." + fd.Name.Name
		}
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

func unbufferedChanFindings(fset *token.FileSet, file *ast.File) []string {
	var out []string
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "make" || id.Obj != nil {
			return true
		}
		ch, ok := call.Args[0].(*ast.ChanType)
		if !ok {
			return true
		}
		if st, ok := ch.Value.(*ast.StructType); ok && len(st.Fields.List) == 0 {
			return true
		}
		out = append(out, fmt.Sprintf("%s: make(chan …) without a capacity is a rendezvous; give it a buffer",
			fset.Position(call.Pos())))
		return true
	})
	return out
}
