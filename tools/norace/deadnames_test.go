package norace

import (
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// interfaceMethods are method names a type declares to satisfy an
// interface of the standard library, which calls them where no file of
// the tree names them.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Is": true,
	"ServeHTTP": true, "Len": true, "Less": true, "Swap": true,
	"Read": true, "Write": true, "Close": true, "ReadAt": true, "WriteAt": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
}

// TestEveryFunctionIsUsed fails on a function or method that no file of
// the tree names: for every name a non-test file declares, it counts the
// identifiers of that spelling across every .go file — tests, bench/ and
// examples included, comments not — and requires more than the
// declarations themselves. Names are compared without their receiver, so
// one use of a name keeps every method of that name. main, init and the
// methods in interfaceMethods are exempt.
func TestEveryFunctionIsUsed(t *testing.T) {
	idents := map[string]int{} // identifier → occurrences, declarations included
	declared := map[string][]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fset := token.NewFileSet()
		var s scanner.Scanner
		s.Init(fset.AddFile(path, -1, len(src)), src, nil, 0) // mode 0 drops comments
		for {
			_, tok, lit := s.Scan()
			if tok == token.EOF {
				break
			}
			if tok == token.IDENT {
				idents[lit]++
			}
		}
		if strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				rel, _ := filepath.Rel(root, path)
				declared[fn.Name.Name] = append(declared[fn.Name.Name], rel)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for name, files := range declared {
		if name == "main" || name == "init" || name == "_" || interfaceMethods[name] {
			continue
		}
		if idents[name] <= len(files) {
			dead = append(dead, name+" ("+strings.Join(files, ", ")+")")
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is declared and never used", d)
	}
}
