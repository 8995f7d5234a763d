package pga

// TestSourceScan holds three source rules of the replay contract over
// every non-test Go file of the module (testdata and dot-directories
// skipped, as the go tool does):
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
