package lint

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
	"slices"
	"sort"
	"strings"
)

// Loader parses and type-checks every package under one Go module
// without any external tooling: module-internal import paths resolve
// against the module root on disk, standard-library imports resolve
// through the compiler's export data (go/importer). The repo has no
// third-party dependencies, so those two sources cover everything.
type Loader struct {
	Fset *token.FileSet

	moduleRoot string
	modulePath string

	std  types.Importer      // stdlib importer (gc export data)
	pkgs map[string]*Package // by import path
	busy map[string]bool     // import-cycle guard
}

// Package is one loaded, type-checked package: the syntax, the type
// information, and where it came from.
type Package struct {
	Path  string // import path ("qbism/internal/lfm")
	Name  string // package name ("lfm")
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// NewLoader builds a loader for the module rooted at dir (the directory
// containing go.mod).
func NewLoader(moduleRoot string) (*Loader, error) {
	modFile := filepath.Join(moduleRoot, "go.mod")
	data, err := os.ReadFile(modFile)
	if err != nil {
		return nil, fmt.Errorf("lint: %v", err)
	}
	modulePath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modulePath = strings.TrimSpace(rest)
			break
		}
	}
	if modulePath == "" {
		return nil, fmt.Errorf("lint: no module line in %s", modFile)
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		moduleRoot: moduleRoot,
		modulePath: modulePath,
		std:        importer.ForCompiler(fset, "gc", nil),
		pkgs:       make(map[string]*Package),
		busy:       make(map[string]bool),
	}, nil
}

// LoadAll loads every package under the module root (skipping testdata,
// hidden directories, _test.go files and files that neither the default
// build nor the race build includes) and returns them sorted by import
// path.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.moduleRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.moduleRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.moduleRoot, dir)
		if err != nil {
			return nil, err
		}
		path := l.modulePath
		if rel != "." {
			path = l.modulePath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// Import implements types.Importer: module-internal paths load from
// disk, everything else is assumed to be standard library.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modulePath), "/")
		dir := filepath.Join(l.moduleRoot, filepath.FromSlash(rel))
		pkg, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

func (l *Loader) load(path, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.busy[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	l.busy[path] = true
	defer delete(l.busy, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %v", err)
	}
	var files []*ast.File
	name := ""
	for _, e := range entries {
		fn := e.Name()
		if e.IsDir() || !strings.HasSuffix(fn, ".go") || strings.HasSuffix(fn, "_test.go") {
			continue
		}
		if ok, err := builtByAny(dir, fn); err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, fn), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		if name == "" {
			name = f.Name.Name
		} else if f.Name.Name != name {
			return nil, fmt.Errorf("lint: %s: packages %q and %q in one directory", dir, name, f.Name.Name)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %v", path, err)
	}
	pkg := &Package{
		Path:  path,
		Name:  name,
		Dir:   dir,
		Fset:  l.Fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// builds are the constraint sets a file is loaded under: the default
// build and the race detector's. A file that either builds is loaded and
// linted, so a race-only file must declare nothing the default build
// also declares (it sets the default's state in an init instead), or its
// package fails to type-check here.
var builds = func() []build.Context {
	race := build.Default
	race.BuildTags = append(slices.Clone(race.BuildTags), "race")
	return []build.Context{build.Default, race}
}()

// builtByAny reports whether some build in builds includes dir/fn.
func builtByAny(dir, fn string) (bool, error) {
	for _, b := range builds {
		if ok, err := b.MatchFile(dir, fn); ok || err != nil {
			return ok, err
		}
	}
	return false, nil
}

// hasGoFiles reports whether dir directly contains at least one
// non-test .go file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			return true
		}
	}
	return false
}
