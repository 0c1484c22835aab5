// Package norace checks that `make norace` runs every test the race
// detector build leaves out. CI's main test step is `go test -race
// ./...`, which never compiles a //go:build !race file, so a test in one
// runs only if the norace target names it. It also checks that the crash
// targets' -run lists name only tests that exist.
package norace

import (
	"go/ast"
	"go/build/constraint"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const root = "../.."

// noraceRecipe is the target's command line, with the test list spelled
// in the NORACE_TESTS variable.
const noraceRecipe = `$(GO) test -run '^($(NORACE_TESTS))$$' ./...`

func TestNoraceTargetRunsEveryRaceExcludedTest(t *testing.T) {
	makefile := read(t, "Makefile")
	listed := map[string]bool{}
	if m := regexp.MustCompile(`(?m)^NORACE_TESTS = (.+)$`).FindStringSubmatch(makefile); m != nil {
		for _, name := range strings.Split(m[1], "|") {
			listed[name] = true
		}
	} else {
		t.Fatal("Makefile defines no NORACE_TESTS")
	}
	if !strings.Contains(makefile, "\nnorace:\n\t"+noraceRecipe+"\n") {
		t.Errorf("the norace target is not `%s`", noraceRecipe)
	}
	if !regexp.MustCompile(`(?m)^check:.* norace\b`).MatchString(makefile) {
		t.Error("make check does not run norace")
	}
	if !strings.Contains(read(t, ".github/workflows/ci.yml"), "run: make norace\n") {
		t.Error("ci.yml does not run make norace")
	}

	found := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// ./... skips testdata, nested modules and directories whose
			// names start with . or _.
			name := d.Name()
			_, modErr := os.Stat(filepath.Join(path, "go.mod"))
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || modErr == nil) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		if !raceExcluded(f) {
			return nil
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") {
				found[fn.Name.Name] = true
				if !listed[fn.Name.Name] {
					t.Errorf("%s in %s is built only without -race, and NORACE_TESTS does not name it", fn.Name.Name, path)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name := range listed {
		if !found[name] {
			t.Errorf("NORACE_TESTS names %s, which no !race file declares", name)
		}
	}
}

// raceExcluded reports whether a file's build constraint holds without
// the race tag and fails with it.
func raceExcluded(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() > f.Package {
			break
		}
		for _, c := range cg.List {
			if expr, err := constraint.Parse(c.Text); err == nil {
				return expr.Eval(func(tag string) bool { return tag != "race" }) &&
					!expr.Eval(func(string) bool { return true })
			}
		}
	}
	return false
}

func read(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(root, name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
