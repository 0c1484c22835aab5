package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Analyzer string
	File     string // module-root-relative, slash-separated
	Line     int
	Col      int
	Message  string
}

// String renders the finding in the classic file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", f.File, f.Line, f.Col, f.Message, f.Analyzer)
}

// Pass is everything one analyzer sees for one package.
type Pass struct {
	Fset    *token.FileSet
	Files   []*ast.File
	PkgPath string
	PkgName string
	Pkg     *types.Package
	Info    *types.Info
	ModPath string // module path, for layering-sensitive rules
	Root    string // module root, for rendering relative paths

	analyzer string
	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	file := position.Filename
	if rel, err := filepath.Rel(p.Root, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = rel
	}
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.analyzer,
		File:     filepath.ToSlash(file),
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// relPkg returns the package path relative to the module ("" for the
// module root package).
func (p *Pass) relPkg() string {
	return strings.TrimPrefix(strings.TrimPrefix(p.PkgPath, p.ModPath), "/")
}

// inLibrary reports whether the package is library code (the public fix
// package or anything under internal/), as opposed to cmd, tools,
// examples, or the module root.
func (p *Pass) inLibrary() bool {
	rel := p.relPkg()
	return rel == "fix" || rel == "internal" || strings.HasPrefix(rel, "fix/") || strings.HasPrefix(rel, "internal/")
}

// ModulePass is what a module-level analyzer sees: every loaded package
// at once, for rules that need a cross-package view (lockorder's call
// graph). Module passes run after the per-package phase.
type ModulePass struct {
	Fset    *token.FileSet
	Pkgs    []*Pass // one per package, sharing the module-wide finding sink
	ModPath string
	Root    string
}

// Analyzer is one named rule set. Run analyzes one package at a time;
// RunModule, when set instead, sees the whole module at once.
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(*Pass)
	RunModule func(*ModulePass)
}

// analyzers is the full suite, in the order findings are attributed.
var analyzers = []*Analyzer{
	errcmpAnalyzer,
	lockcheckAnalyzer,
	lockorderAnalyzer,
	paircheckAnalyzer,
	atomiccheckAnalyzer,
	ctxcheckAnalyzer,
	obscheckAnalyzer,
	depcheckAnalyzer,
	doccheckAnalyzer,
}

// newPass builds a per-package Pass for one analyzer writing into sink.
func newPass(l *Loader, pkg *Package, a *Analyzer, sink *[]Finding) *Pass {
	return &Pass{
		Fset:     l.Fset,
		Files:    pkg.Files,
		PkgPath:  pkg.Path,
		PkgName:  pkg.Name,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		ModPath:  l.ModPath,
		Root:     l.Root,
		analyzer: a.Name,
		findings: sink,
	}
}

// runAnalyzers applies the selected analyzers to every package and
// returns the findings sorted by position. Per-package analyzers run
// package by package; module-level analyzers run once, afterwards, over
// the whole package set.
func runAnalyzers(l *Loader, pkgs []*Package, selected []*Analyzer) []Finding {
	var findings []Finding
	for _, pkg := range pkgs {
		for _, a := range selected {
			if a.Run != nil {
				a.Run(newPass(l, pkg, a, &findings))
			}
		}
	}
	for _, a := range selected {
		if a.RunModule == nil {
			continue
		}
		mp := &ModulePass{Fset: l.Fset, ModPath: l.ModPath, Root: l.Root}
		for _, pkg := range pkgs {
			mp.Pkgs = append(mp.Pkgs, newPass(l, pkg, a, &findings))
		}
		a.RunModule(mp)
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return findings
}
