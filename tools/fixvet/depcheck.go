package main

import (
	"go/ast"
	"strconv"
	"strings"
)

// depcheckAnalyzer pins the module's dependency policy: the standard
// library plus module-internal packages only (the container builds with
// no network), and a one-way layering — binaries sit on top of the
// library, never the other way around, and internal engine packages
// never import the public fix package. Packages in serviceLayer are the
// deliberate exception: they sit *above* fix (like cmd binaries do) but
// stay internal because they are operational infrastructure, not public
// API; they may import fix, and fix may never import them.
var depcheckAnalyzer = &Analyzer{
	Name: "depcheck",
	Doc: "imports must be stdlib or module-internal; cmd/tools/examples " +
		"may not be imported; internal/ may not import the public fix " +
		"package (service-layer packages excepted); fix, internal/core " +
		"and internal/collection reach files through storage.Disk only",
	Run: runDepcheck,
}

// serviceLayer lists internal packages layered above the public fix
// package: they orchestrate whole fix.DB instances (sharding, serving
// infrastructure) rather than implementing the engine. The layering for
// them runs cmd → service layer → fix → internal engine; depcheck still
// forbids the reverse direction (fix importing them) through the general
// internal-import rules in the fix package itself.
var serviceLayer = map[string]bool{
	"internal/collection": true,
	// experiments drives whole databases from the outside (the
	// maintenance sweep measures fix.DB checkpoint stalls), so it sits
	// above fix the same way collection does.
	"internal/experiments": true,
}

// seamBypasses are the os calls that reach a file around storage.Disk,
// the one filesystem seam of fix, internal/core and internal/collection:
// a rename the seam does not see is one a crash model cannot lose.
var seamBypasses = []string{"Create", "Open", "OpenFile", "ReadFile", "WriteFile", "Rename", "Remove", "Stat"}

func runDepcheck(pass *Pass) {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			checkImport(pass, imp, path)
		}
		if rel := pass.relPkg(); rel == "fix" || rel == "internal/core" || rel == "internal/collection" {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					for _, name := range seamBypasses {
						if isPkgCall(pass.Info, call, "os", name) {
							pass.Reportf(call.Pos(), "os.%s bypasses the filesystem seam; go through storage.Disk", name)
						}
					}
				}
				return true
			})
		}
	}
}

// checkImport applies the policy to a single import.
func checkImport(pass *Pass, imp *ast.ImportSpec, path string) {
	if path == "C" {
		pass.Reportf(imp.Pos(), "cgo is not allowed; the module is pure Go")
		return
	}
	inModule := path == pass.ModPath || strings.HasPrefix(path, pass.ModPath+"/")
	if !inModule {
		if !isStdlibPath(path) {
			pass.Reportf(imp.Pos(), "import %q is neither stdlib nor module-internal; the module policy is stdlib-only", path)
		}
		return
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, pass.ModPath), "/")
	passRel := pass.relPkg()
	inTools := segment(passRel) == "tools"
	switch segment(rel) {
	case "cmd", "examples":
		pass.Reportf(imp.Pos(), "import %q: command and tool packages may not be imported as libraries", path)
		return
	case "tools":
		// The tools subtree may layer internally (fixvet imports its own
		// cfg package); nothing outside it may reach in.
		if !inTools {
			pass.Reportf(imp.Pos(), "import %q: command and tool packages may not be imported as libraries", path)
		}
		return
	}
	if inTools {
		// Tools introspect the module from outside: they read source, not
		// APIs. Importing the library would couple `make lint` to the code
		// it is linting (and quietly exempt that code from analysis).
		if rel == "fix" || strings.HasPrefix(rel, "fix/") || segment(rel) == "internal" {
			pass.Reportf(imp.Pos(), "import %q: tools may only import stdlib and the tools subtree, not the library they analyze", path)
			return
		}
	}
	if pass.inLibrary() && strings.HasPrefix(pass.PkgPath, pass.ModPath+"/internal") {
		if serviceLayer[strings.TrimPrefix(strings.TrimPrefix(pass.PkgPath, pass.ModPath), "/")] {
			return
		}
		if rel == "fix" || strings.HasPrefix(rel, "fix/") {
			pass.Reportf(imp.Pos(), "internal package imports the public %q package; layering runs fix → internal, never back", path)
		}
	}
}

// segment returns the first path segment of a slash path.
func segment(p string) string {
	if i := strings.IndexByte(p, '/'); i >= 0 {
		return p[:i]
	}
	return p
}

// isStdlibPath uses the import-path convention: standard library paths
// have no dot in their first segment ("net/http" yes, "example.com/x"
// no). That is exactly the rule the go command applies.
func isStdlibPath(path string) bool {
	return !strings.Contains(segment(path), ".")
}
