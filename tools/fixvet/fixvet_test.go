package main

import (
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// repoRoot locates the module root two levels above this package.
func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found at %s: %v", root, err)
	}
	return root
}

// A want comment marks the line where a finding is expected:
//
//	expr // want `regexp`
//
// An optional offset relocates the expectation, for sites where a
// trailing comment would change the analysis (doc comments):
//
//	// want:+2 `regexp`
var (
	wantLineRe = regexp.MustCompile(`^want(?::([+-]?\d+))?\s+(.*)$`)
	wantArgRe  = regexp.MustCompile("`([^`]+)`|\"((?:[^\"\\\\]|\\\\.)*)\"")
)

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

// parseWants extracts the expectations from a fixture package's
// comments, rendering file paths the same way Reportf does.
func parseWants(t *testing.T, l *Loader, pkg *Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				m := wantLineRe.FindStringSubmatch(text)
				if m == nil {
					continue
				}
				pos := l.Fset.Position(c.Pos())
				line := pos.Line
				if m[1] != "" {
					off, err := strconv.Atoi(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want offset %q", pos.Filename, pos.Line, m[1])
					}
					line += off
				}
				file := pos.Filename
				if rel, err := filepath.Rel(l.Root, file); err == nil {
					file = filepath.ToSlash(rel)
				}
				args := wantArgRe.FindAllStringSubmatch(m[2], -1)
				if len(args) == 0 {
					t.Fatalf("%s:%d: want comment with no pattern: %s", pos.Filename, pos.Line, text)
				}
				for _, a := range args {
					raw := a[1]
					if raw == "" {
						raw = a[2]
					}
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, raw, err)
					}
					wants = append(wants, &expectation{file: file, line: line, re: re, raw: raw})
				}
			}
		}
	}
	return wants
}

func analyzerByName(t *testing.T, name string) *Analyzer {
	t.Helper()
	for _, a := range analyzers {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no analyzer named %q", name)
	return nil
}

// fixtureCases maps each golden-fixture directory to the analyzer it
// seeds violations for. The meta-test below checks that every
// registered analyzer appears here.
var fixtureCases = []struct {
	dir      string // under tools/fixvet/testdata/src
	analyzer string
	asPath   string // fake module-relative import path, selects scope-gated rules
}{
	{"errcmp", "errcmp", "internal/fixture"},
	{"lockcheck", "lockcheck", "internal/fixture"},
	{"lockorder", "lockorder", "internal/fixture"},
	{"paircheck", "paircheck", "internal/fixture"},
	{"atomiccheck", "atomiccheck", "internal/fixture"},
	{"ctxcheck", "ctxcheck", "internal/core"},
	{"obscheck", "obscheck", "internal/fixture"},
	{"obscheck_obs", "obscheck", "internal/obs"},
	{"depcheck", "depcheck", "internal/core"},
	{"doccheck_nodoc", "doccheck", "internal/nodoc"},
	{"doccheck_fix", "doccheck", "fix"},
}

// TestFixtures runs each analyzer over its seeded-violation package and
// checks the findings against the want comments, both ways: every
// finding must be wanted, every want must be found. The non-empty
// assertion doubles as the driver's seeded-violation exit check: any of
// these findings would make the binary exit non-zero.
func TestFixtures(t *testing.T) {
	root := repoRoot(t)
	for _, tc := range fixtureCases {
		t.Run(tc.dir, func(t *testing.T) {
			l, err := NewLoader(root)
			if err != nil {
				t.Fatal(err)
			}
			dir := filepath.Join(root, "tools", "fixvet", "testdata", "src", tc.dir)
			pkg, err := l.LoadDir(dir, l.ModPath+"/"+tc.asPath)
			if err != nil {
				t.Fatal(err)
			}
			findings := runAnalyzers(l, []*Package{pkg}, []*Analyzer{analyzerByName(t, tc.analyzer)})
			if len(findings) == 0 {
				t.Fatalf("fixture %s seeds violations but produced no findings", tc.dir)
			}
			wants := parseWants(t, l, pkg)
			for _, f := range findings {
				matched := false
				for _, w := range wants {
					if !w.hit && w.file == f.File && w.line == f.Line && w.re.MatchString(f.Message) {
						w.hit = true
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("unexpected finding: %s", f)
				}
			}
			for _, w := range wants {
				if !w.hit {
					t.Errorf("%s:%d: no finding matching %q", w.file, w.line, w.raw)
				}
			}
		})
	}
}

// TestRegistryComplete asserts the suite's registration invariants:
// every registered analyzer shows up in the -list output with a doc
// string, and every analyzer has at least one golden fixture exercising
// it, so a new pass cannot land without a seeded-violation test.
func TestRegistryComplete(t *testing.T) {
	var buf strings.Builder
	listAnalyzers(&buf)
	listing := buf.String()
	covered := map[string]bool{}
	for _, tc := range fixtureCases {
		covered[tc.analyzer] = true
	}
	seen := map[string]bool{}
	for _, a := range analyzers {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("analyzer %q registered without a name or doc", a.Name)
			continue
		}
		if seen[a.Name] {
			t.Errorf("analyzer %q registered twice", a.Name)
		}
		seen[a.Name] = true
		if (a.Run == nil) == (a.RunModule == nil) {
			t.Errorf("analyzer %q must set exactly one of Run and RunModule", a.Name)
		}
		if !strings.Contains(listing, a.Name) {
			t.Errorf("analyzer %q missing from -list output", a.Name)
		}
		if !covered[a.Name] {
			t.Errorf("analyzer %q has no golden fixture under testdata/src", a.Name)
		}
	}
	for _, tc := range fixtureCases {
		if !seen[tc.analyzer] {
			t.Errorf("fixture %q names unregistered analyzer %q", tc.dir, tc.analyzer)
		}
		if _, err := os.Stat(filepath.Join(repoRoot(t), "tools", "fixvet", "testdata", "src", tc.dir)); err != nil {
			t.Errorf("fixture dir %q missing: %v", tc.dir, err)
		}
	}
}

// TestRepoClean asserts the live tree type-checks as the host platform
// builds it and has no findings — the same invariant `make lint`
// enforces in CI — and that no package of bench/, a module of its own, is
// among those loaded.
func TestRepoClean(t *testing.T) {
	root := repoRoot(t)
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range runAnalyzers(l, pkgs, analyzers) {
		t.Errorf("finding: %s", f)
	}
	for _, pkg := range pkgs {
		if pkg.Path == l.ModPath+"/bench" || strings.HasPrefix(pkg.Path, l.ModPath+"/bench/") {
			t.Errorf("loaded %s, a package of the bench module", pkg.Path)
		}
	}

	// The record heap has one file per platform family; only the one
	// `go build` picks may be type-checked, or its declarations clash.
	for _, pkg := range pkgs {
		if pkg.Path != l.ModPath+"/internal/storage" {
			continue
		}
		var heapFiles []string
		for _, f := range pkg.Files {
			if name := filepath.Base(l.Fset.Position(f.Pos()).Filename); strings.HasPrefix(name, "heap_") {
				heapFiles = append(heapFiles, name)
			}
		}
		if len(heapFiles) != 1 || (runtime.GOOS == "linux" && heapFiles[0] != "heap_unix.go") {
			t.Errorf("internal/storage loaded %v on %s, want heap_unix.go or heap_other.go alone", heapFiles, runtime.GOOS)
		}
		return
	}
	t.Error("internal/storage was not loaded")
}
