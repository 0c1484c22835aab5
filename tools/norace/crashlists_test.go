package norace

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCrashTargetsRunOnlyDeclaredTests fails when an alternative of a -run
// list in `make ingest-crash` or `make maintain-crash` matches no test its
// line's package declares: a renamed or moved crash test would otherwise
// drop out of the target in silence.
func TestCrashTargetsRunOnlyDeclaredTests(t *testing.T) {
	makefile := read(t, "Makefile")
	line := regexp.MustCompile(`^\t\$\(GO\) test -run '([^']+)' -v (\./\S+)$`)
	for _, target := range []string{"ingest-crash", "maintain-crash"} {
		recipe := regexp.MustCompile(`(?m)^` + target + `:\n((?:\t.*\n)+)`).FindStringSubmatch(makefile)
		if recipe == nil {
			t.Fatalf("the Makefile has no %s target", target)
		}
		for _, cmd := range strings.Split(strings.TrimSuffix(recipe[1], "\n"), "\n") {
			m := line.FindStringSubmatch(cmd)
			if m == nil {
				t.Errorf("%s: %q is not `$(GO) test -run '…' -v ./pkg/`", target, cmd)
				continue
			}
			tests := declaredTests(t, m[2])
			for _, alt := range strings.Split(m[1], "|") {
				re := regexp.MustCompile(alt)
				matched := false
				for _, name := range tests {
					matched = matched || re.MatchString(name)
				}
				if !matched {
					t.Errorf("%s: -run alternative %s matches no test declared in %s", target, alt, m[2])
				}
			}
		}
	}
}

// declaredTests returns the Test functions the _test.go files of the
// package at pkg (a ./-relative path from the module root) declare.
func declaredTests(t *testing.T, pkg string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(root, pkg, "*_test.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("%s: no test files (%v)", pkg, err)
	}
	var names []string
	for _, path := range files {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") {
				names = append(names, fn.Name.Name)
			}
		}
	}
	return names
}
