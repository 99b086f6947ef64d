package lint

import (
	"errors"
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
	"strings"
	"sync"
)

// Package is one loaded, type-checked package of the module.
type Package struct {
	// Path is the full import path (module path + "/" + Rel).
	Path string
	// Rel is the module-relative directory ("" for the root package).
	Rel string
	// Fset is the process-wide file set (shared across packages).
	Fset *token.FileSet
	// Syntax holds the parsed files, sorted by filename.
	Syntax []*ast.File
	// Types and Info carry the go/types results.
	Types *types.Package
	Info  *types.Info

	// srcLines maps each file's path to its source split into lines,
	// used by the suppression-directive scanner.
	srcLines map[string][]string
	// imports are the module-internal import paths, sorted.
	imports []string
}

// loader is the process-wide type-checking state: one file set, through
// which every loaded Package's positions resolve, and one stdlib source
// importer, whose package cache spares later loads in the same process
// (the fixture tests) from re-checking the standard library. mu
// serialises type-checking: the importer and the checker share it.
var loader struct {
	mu   sync.Mutex
	fset *token.FileSet
	std  types.Importer
}

func init() {
	loader.fset = token.NewFileSet()
	loader.std = importer.ForCompiler(loader.fset, "source", nil)
}

// Load parses and type-checks every package under root (the directory
// containing go.mod), returning them in dependency order. Test files
// (*_test.go), testdata, vendor and hidden directories are skipped: the
// linted surface is the shipped tree. Within a directory, go/build
// picks the files the go command would build on the host platform.
//
// Load fails if any file does not parse or any package does not
// type-check — the lint gate presumes a compiling tree.
func Load(root string) ([]*Package, error) {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(absRoot)
	if err != nil {
		return nil, err
	}
	dirs, err := packageDirs(absRoot)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	byPath := make(map[string]*Package)
	for _, dir := range dirs {
		pkg, err := parseDir(absRoot, modPath, dir)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			continue // no buildable files
		}
		pkgs = append(pkgs, pkg)
		byPath[pkg.Path] = pkg
	}
	ordered, err := topoSort(pkgs, byPath)
	if err != nil {
		return nil, err
	}

	loader.mu.Lock()
	defer loader.mu.Unlock()
	imp := &moduleImporter{modPath: modPath, deps: make(map[string]*types.Package, len(ordered))}
	for _, pkg := range ordered {
		if err := typeCheck(pkg, imp); err != nil {
			return nil, err
		}
		imp.deps[pkg.Path] = pkg.Types
	}
	return ordered, nil
}

// typeCheck type-checks one parsed package against its already-checked
// dependencies. Called with loader.mu held.
func typeCheck(pkg *Package, imp types.Importer) error {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErrs []string
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			if len(typeErrs) < 20 {
				typeErrs = append(typeErrs, err.Error())
			}
		},
	}
	tpkg, _ := conf.Check(pkg.Path, loader.fset, pkg.Syntax, info)
	if len(typeErrs) > 0 {
		return fmt.Errorf("lint: type errors:\n  %s", strings.Join(typeErrs, "\n  "))
	}
	pkg.Types = tpkg
	pkg.Info = info
	return nil
}

// moduleImporter resolves module-internal paths to the packages checked
// so far and everything else through the shared source importer.
type moduleImporter struct {
	modPath string
	deps    map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if path == m.modPath || strings.HasPrefix(path, m.modPath+"/") {
		if p, ok := m.deps[path]; ok {
			return p, nil
		}
	}
	return loader.std.Import(path)
}

// modulePath reads the module path from root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("lint: %s is not a module root: %w", root, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			if p != "" {
				return strings.Trim(p, `"`), nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module line in %s/go.mod", root)
}

// packageDirs walks root collecting directories that may hold Go
// packages, skipping hidden, vendor and testdata trees.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// parseDir parses the files go/build selects in dir for the host
// platform (non-test, build constraints and _GOOS/_GOARCH names
// applied) and keeps their module-internal imports. Returns nil if the
// directory holds no buildable files.
func parseDir(root, modPath, dir string) (*Package, error) {
	bp, err := build.Default.ImportDir(dir, 0)
	var noGo *build.NoGoError
	if errors.As(err, &noGo) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	rel = filepath.ToSlash(rel)
	importPath := modPath + "/" + rel
	if rel == "." {
		rel, importPath = "", modPath
	}

	pkg := &Package{Path: importPath, Rel: rel, Fset: loader.fset, srcLines: make(map[string][]string)}
	for _, name := range bp.GoFiles {
		full := filepath.Join(dir, name)
		src, err := os.ReadFile(full)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(loader.fset, full, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		pkg.Syntax = append(pkg.Syntax, f)
		pkg.srcLines[full] = strings.Split(string(src), "\n")
	}
	for _, p := range bp.Imports {
		if p == modPath || strings.HasPrefix(p, modPath+"/") {
			pkg.imports = append(pkg.imports, p)
		}
	}
	return pkg, nil
}

// topoSort orders packages so every module-internal dependency precedes
// its dependents.
func topoSort(pkgs []*Package, byPath map[string]*Package) ([]*Package, error) {
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make(map[string]int, len(pkgs))
	ordered := make([]*Package, 0, len(pkgs))
	var visit func(p *Package) error
	visit = func(p *Package) error {
		switch state[p.Path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("lint: import cycle through %s", p.Path)
		}
		state[p.Path] = visiting
		for _, dep := range p.imports {
			if d, ok := byPath[dep]; ok {
				if err := visit(d); err != nil {
					return err
				}
			}
		}
		state[p.Path] = done
		ordered = append(ordered, p)
		return nil
	}
	for _, p := range pkgs {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return ordered, nil
}
