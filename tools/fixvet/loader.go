package main

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed, and type-checked package.
type Package struct {
	Path  string // import path ("github.com/fix-index/fix/internal/btree")
	Dir   string // absolute directory
	Name  string // package name from the package clauses
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader discovers, parses, and type-checks every package of one module
// using only the standard library: go/parser for syntax, go/types with
// the toolchain's default importer for the standard library, and its own
// directory walk for module-internal imports. No x/tools dependency.
// Files are selected as `go build` selects them for the host platform
// (file-name suffixes and //go:build lines). A type error does not stop
// the check, so analyzers can run over fixture packages with
// deliberately unresolvable imports, but LoadAll fails on one.
type Loader struct {
	Root    string // absolute module root
	ModPath string // module path from go.mod
	Fset    *token.FileSet

	std      types.Importer
	pkgs     map[string]*Package // by import path, fully loaded
	loading  map[string]bool     // cycle guard
	typeErrs []error             // every error the type checker reported
}

// NewLoader reads go.mod under root and prepares a loader.
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	return &Loader{
		Root:    abs,
		ModPath: modPath,
		Fset:    token.NewFileSet(),
		std:     importer.Default(),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("no module directive in %s", gomod)
}

// LoadAll loads every package in the module, skipping testdata, hidden
// directories, directories below the root that hold a go.mod (another
// module, such as bench/), and _test.go files, and returns them sorted by
// import path. It fails when any of them does not type-check.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	seen := map[string]bool{}
	err := filepath.WalkDir(l.Root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path == l.Root {
				return nil
			}
			if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			// Walk order interleaves a package's files with its
			// subdirectories (fixvet's own cfg/ sorts mid-package), so
			// dedupe by directory, not by run.
			if dir := filepath.Dir(path); !seen[dir] {
				seen[dir] = true
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.Root, dir)
		if err != nil {
			return nil, err
		}
		path := l.ModPath
		if rel != "." {
			path = l.ModPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.load(path, dir)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", rel, err)
		}
		if pkg != nil {
			out = append(out, pkg)
		}
	}
	if len(l.typeErrs) > 0 {
		return nil, fmt.Errorf("the tree does not type-check:\n%w", errors.Join(l.typeErrs...))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// LoadDir loads a single out-of-tree directory (a test fixture) as if it
// had import path asPath, so path-sensitive analyzers behave as they
// would inside the module. Imports of module-internal packages resolve
// against the loader's module root.
func (l *Loader) LoadDir(dir, asPath string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return l.load(asPath, abs)
}

// load parses and type-checks the package in dir, memoized by path.
func (l *Loader) load(path, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") || e.IsDir() {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, n); err != nil {
			return nil, err
		} else if ok {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return nil, nil
	}
	sort.Strings(names)
	pkg := &Package{Path: path, Dir: dir}
	for _, n := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
		pkg.Name = f.Name.Name
	}
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error:    func(err error) { l.typeErrs = append(l.typeErrs, err) },
	}
	l.loading[path] = true
	tpkg, _ := conf.Check(path, l.Fset, pkg.Files, pkg.Info)
	delete(l.loading, path)
	pkg.Types = tpkg
	l.pkgs[path] = pkg
	return pkg, nil
}

// loaderImporter resolves imports during type checking: module-internal
// paths load recursively from the module tree, everything else goes to
// the toolchain importer, and anything unresolvable becomes an empty
// marker package so checking can continue (the miss is still a type
// error and, for non-stdlib paths, a depcheck finding).
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		if l.loading[path] {
			return fakePackage(path), nil // import cycle; let go build report it
		}
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
		pkg, err := l.load(path, filepath.Join(l.Root, filepath.FromSlash(rel)))
		if err != nil || pkg == nil {
			return fakePackage(path), nil
		}
		return pkg.Types, nil
	}
	if p, err := l.std.Import(path); err == nil {
		return p, nil
	}
	return fakePackage(path), nil
}

// fakePackage returns an empty, complete package for an unresolvable
// import path.
func fakePackage(path string) *types.Package {
	name := path
	if i := strings.LastIndex(path, "/"); i >= 0 {
		name = path[i+1:]
	}
	p := types.NewPackage(path, name)
	p.MarkComplete()
	return p
}
