package analysis

// Module loading for pgalint. The module is zero-dependency, so a full
// go/packages-style driver is unnecessary: we walk the module tree,
// group non-test files into packages, topologically sort them by their
// module-internal imports and type-check each one with go/types. Standard
// library imports are resolved from GOROOT source via the stdlib source
// importer (go/importer "source" mode), which needs no pre-compiled
// export data.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one loaded, type-checked package of the module.
type Package struct {
	// Path is the import path ("pga", "pga/internal/island", ...).
	Path string
	// Dir is the absolute directory.
	Dir string
	// Fset is shared by every package of one Load call.
	Fset *token.FileSet
	// Files are the parsed non-test files, in file-name order.
	Files []*ast.File
	// Types is the type-checked package object (possibly incomplete when
	// TypeErrors is non-empty).
	Types *types.Package
	// Info is the collected type information for Files.
	Info *types.Info
	// TypeErrors collects type-checker errors. pgalint tolerates them —
	// `go build` is the build gate; the linter still analyzes what it can.
	TypeErrors []error

	imports []string // module-internal import paths
}

// Module is the loaded module.
type Module struct {
	// Root is the absolute directory containing go.mod.
	Root string
	// Path is the module path from go.mod.
	Path string
	// Fset is the shared file set.
	Fset *token.FileSet
	// Pkgs are the module's packages in topological (dependency-first)
	// order.
	Pkgs []*Package
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			mp := strings.TrimSpace(rest)
			if unq, err := strconv.Unquote(mp); err == nil {
				mp = unq
			}
			if mp != "" {
				return mp, nil
			}
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

// LoadModule parses and type-checks every package under root (the
// directory holding go.mod). Directories named testdata or vendor,
// hidden directories and _-prefixed directories are skipped, as are
// _test.go files: pgalint lints production code only.
func LoadModule(root string) (*Module, error) {
	fset := token.NewFileSet()
	return loadModule(root, fset, importer.ForCompiler(fset, "source", nil))
}

// loadModule is LoadModule into a caller-owned file set, resolving the
// standard library through std (which must position into fset): the
// test binary type-checks the standard library once for the module and
// every fixture.
func loadModule(root string, fset *token.FileSet, std types.Importer) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	mod := &Module{Root: root, Path: modPath, Fset: fset}

	byPath := map[string]*Package{}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		// The files the host's build would compile: a _GOARCH suffix or a
		// //go:build line may exclude one (operators/powfrac*.go).
		if ok, err := build.Default.MatchFile(dir, d.Name()); err != nil || !ok {
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		pkgPath := modPath
		if rel != "." {
			pkgPath = modPath + "/" + filepath.ToSlash(rel)
		}
		pkg := byPath[pkgPath]
		if pkg == nil {
			pkg = &Package{Path: pkgPath, Dir: dir, Fset: fset}
			byPath[pkgPath] = pkg
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("analysis: %w", err)
		}
		pkg.Files = append(pkg.Files, file)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Record module-internal imports for topological ordering.
	for _, pkg := range byPath {
		seen := map[string]bool{}
		for _, f := range pkg.Files {
			for _, imp := range f.Imports {
				ip, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if (ip == modPath || strings.HasPrefix(ip, modPath+"/")) && !seen[ip] {
					seen[ip] = true
					pkg.imports = append(pkg.imports, ip)
				}
			}
		}
		sort.Strings(pkg.imports)
	}

	order, err := topoSort(byPath)
	if err != nil {
		return nil, err
	}

	imp := &moduleImporter{std: std, mod: byPath}
	for _, pkg := range order {
		checkPackage(pkg, imp)
		mod.Pkgs = append(mod.Pkgs, pkg)
	}
	return mod, nil
}

// topoSort orders packages dependency-first; imports within the module
// form a DAG (the compiler rejects cycles), but a malformed tree still
// gets a clear error rather than an infinite loop.
func topoSort(byPath map[string]*Package) ([]*Package, error) {
	paths := make([]string, 0, len(byPath))
	for p := range byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := map[string]int{}
	var order []*Package
	var visit func(path string) error
	visit = func(path string) error {
		pkg := byPath[path]
		if pkg == nil {
			return nil // import of a module path with no source (shouldn't happen)
		}
		switch state[path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("analysis: import cycle through %s", path)
		}
		state[path] = visiting
		for _, dep := range pkg.imports {
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[path] = done
		order = append(order, pkg)
		return nil
	}
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// moduleImporter resolves module-internal imports from the loaded
// package graph and everything else through the stdlib source importer.
type moduleImporter struct {
	std types.Importer
	mod map[string]*Package
}

// Import implements types.Importer.
func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.mod[path]; ok {
		if pkg.Types == nil {
			return nil, fmt.Errorf("analysis: %s imported before it was checked", path)
		}
		return pkg.Types, nil
	}
	return m.std.Import(path)
}

// checkPackage type-checks pkg, filling Types and Info. Errors are
// collected, not fatal: analyzers run on partial information.
func checkPackage(pkg *Package, imp types.Importer) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	cfg := &types.Config{
		Importer: imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Deterministic file order for deterministic object resolution.
	sort.Slice(pkg.Files, func(i, j int) bool {
		return pkg.Fset.Position(pkg.Files[i].Pos()).Filename <
			pkg.Fset.Position(pkg.Files[j].Pos()).Filename
	})
	tpkg, err := cfg.Check(pkg.Path, pkg.Fset, pkg.Files, info)
	if err != nil && len(pkg.TypeErrors) == 0 {
		pkg.TypeErrors = append(pkg.TypeErrors, err)
	}
	pkg.Types = tpkg
	pkg.Info = info
}
