package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// obscheckAnalyzer guards the observability layer's contract that a nil
// *obs.Trace disables collection, so every write through a Trace pointer
// must sit behind a nil check. It also keeps expvar registration
// centralized in internal/obs with unique literal names, because expvar
// names are process-global and collide with a runtime panic, and keeps
// process-wide counters in the obs registry. Phase timers are
// paircheck's.
var obscheckAnalyzer = &Analyzer{
	Name: "obscheck",
	Doc: "writes through *obs.Trace need a nil guard; expvar " +
		"registration only in internal/obs, with unique literal names; " +
		"package-level atomic counters only in internal/obs",
	Run: runObscheck,
}

func runObscheck(pass *Pass) {
	for _, f := range pass.Files {
		funcsIn(f, func(fd *ast.FuncDecl, body *ast.BlockStmt) {
			checkTraceWrites(pass, fd)
		})
	}
	checkExpvarRegistration(pass)
	checkCounterVars(pass)
}

// checkTraceWrites requires every write through a *obs.Trace-typed
// variable (tr.Phase[...] += d, tr.Count = n, tr.Matched++) to be
// dominated by a nil check of that variable: either an enclosing
// `if tr != nil` (possibly as an && conjunct) or an earlier
// `if tr == nil { return }` in the same function.
func checkTraceWrites(pass *Pass, fd *ast.FuncDecl) {
	parents := buildParents(fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var target ast.Expr
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				if root := traceRoot(pass, lhs); root != nil {
					target = root
				}
			}
		case *ast.IncDecStmt:
			target = traceRoot(pass, st.X)
		}
		if target == nil {
			return true
		}
		id, ok := target.(*ast.Ident)
		if !ok {
			return true
		}
		if !nilGuarded(pass, fd, parents, n.(ast.Stmt), id) {
			pass.Reportf(n.Pos(), "write through *obs.Trace %s without a nil guard; a nil Trace must disable collection", id.Name)
		}
		return true
	})
}

// traceRoot unwraps selector/index chains (tr.Phase[p], tr.Storage) and
// returns the base expression when its static type is *obs.Trace.
func traceRoot(pass *Pass, e ast.Expr) ast.Expr {
	base := e
	for {
		switch x := base.(type) {
		case *ast.SelectorExpr:
			base = x.X
			continue
		case *ast.IndexExpr:
			base = x.X
			continue
		}
		break
	}
	if base == e {
		return nil // a plain identifier write, not a write through the pointer
	}
	if !isTracePtr(pass, base) {
		return nil
	}
	return base
}

// isTracePtr reports whether e's static type is a pointer to a type
// named Trace declared in a package named obs.
func isTracePtr(pass *Pass, e ast.Expr) bool {
	if pass.Info == nil {
		return false
	}
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	ptr, ok := tv.Type.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Name() != "Trace" {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && pkg.Name() == "obs"
}

// nilGuarded reports whether stmt is dominated by a nil check of id.
func nilGuarded(pass *Pass, fd *ast.FuncDecl, parents parentMap, stmt ast.Stmt, id *ast.Ident) bool {
	// Case 1: an enclosing if whose condition contains `id != nil` as a
	// conjunct, with stmt inside the then-branch.
	for n := ast.Node(stmt); n != nil && n != ast.Node(fd); n = parents[n] {
		ifStmt, ok := parents[n].(*ast.IfStmt)
		if !ok || n != ast.Node(ifStmt.Body) {
			continue
		}
		if condChecksNotNil(ifStmt.Cond, id.Name) {
			return true
		}
	}
	// Case 2: an earlier `if id == nil { ...return/continue }` in a block
	// that encloses stmt.
	for n := ast.Node(stmt); n != nil && n != ast.Node(fd); n = parents[n] {
		block, ok := parents[n].(*ast.BlockStmt)
		if !ok {
			continue
		}
		for _, s := range block.List {
			if s.End() >= stmt.Pos() {
				break
			}
			ifStmt, ok := s.(*ast.IfStmt)
			if !ok || !condChecksIsNil(ifStmt.Cond, id.Name) || len(ifStmt.Body.List) == 0 {
				continue
			}
			if terminates(ifStmt.Body.List[len(ifStmt.Body.List)-1]) {
				return true
			}
		}
	}
	return false
}

// condChecksNotNil reports whether cond contains `name != nil` combined
// only with && at the top.
func condChecksNotNil(cond ast.Expr, name string) bool {
	switch c := cond.(type) {
	case *ast.ParenExpr:
		return condChecksNotNil(c.X, name)
	case *ast.BinaryExpr:
		if c.Op == token.LAND {
			return condChecksNotNil(c.X, name) || condChecksNotNil(c.Y, name)
		}
		if c.Op != token.NEQ {
			return false
		}
		return (identNamed(c.X, name) && isNilIdent(c.Y)) || (identNamed(c.Y, name) && isNilIdent(c.X))
	}
	return false
}

// condChecksIsNil reports whether cond is `name == nil` (alone or as an
// || disjunct).
func condChecksIsNil(cond ast.Expr, name string) bool {
	switch c := cond.(type) {
	case *ast.ParenExpr:
		return condChecksIsNil(c.X, name)
	case *ast.BinaryExpr:
		if c.Op == token.LOR {
			return condChecksIsNil(c.X, name) || condChecksIsNil(c.Y, name)
		}
		if c.Op != token.EQL {
			return false
		}
		return (identNamed(c.X, name) && isNilIdent(c.Y)) || (identNamed(c.Y, name) && isNilIdent(c.X))
	}
	return false
}

func identNamed(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

// terminates reports whether stmt unconditionally leaves the block.
func terminates(stmt ast.Stmt) bool {
	switch s := stmt.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// expvar registration functions that install a process-global name.
var expvarRegFuncs = map[string]bool{
	"Publish": true, "NewInt": true, "NewFloat": true, "NewMap": true, "NewString": true,
}

// checkExpvarRegistration keeps expvar names from colliding: expvar
// registers into a process-global namespace and panics on duplicates, so
// registration is allowed only in internal/obs, only with literal names,
// and never twice with the same name.
func checkExpvarRegistration(pass *Pass) {
	inObs := strings.HasSuffix(pass.PkgPath, "/internal/obs")
	seen := map[string]token.Pos{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			qual, name := calleeName(call)
			if !expvarRegFuncs[name] || !isPkgIdent(pass, call, qual, "expvar") {
				return true
			}
			if !inObs {
				pass.Reportf(call.Pos(), "expvar.%s outside internal/obs; register metrics through the obs registry so names stay unique", name)
			}
			if len(call.Args) == 0 {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				pass.Reportf(call.Pos(), "expvar.%s with a non-literal name; literal names are required so uniqueness is checkable", name)
				return true
			}
			if prev, dup := seen[lit.Value]; dup {
				prevPos := pass.Fset.Position(prev)
				pass.Reportf(call.Pos(), "expvar name %s already registered at %s:%d; duplicate registration panics", lit.Value, prevPos.Filename, prevPos.Line)
			} else {
				seen[lit.Value] = call.Pos()
			}
			return true
		})
	}
}

// atomicCounterTypes are the sync/atomic types that act as process-wide
// counters when declared at package level.
var atomicCounterTypes = map[string]bool{
	"Int32": true, "Int64": true, "Uint32": true, "Uint64": true,
}

// checkCounterVars keeps process-wide counters in the metrics registry:
// a package-level sync/atomic counter var outside internal/obs is
// invisible to Snapshot, /metrics and expvar, so the count it gathers
// never reaches an operator. Local and struct-field atomics (worker
// cursors, per-query accumulators) are fine.
func checkCounterVars(pass *Pass) {
	if strings.HasSuffix(pass.PkgPath, "/internal/obs") {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if !isAtomicCounter(pass, name) {
						continue
					}
					pass.Reportf(name.Pos(), "package-level atomic counter %s outside internal/obs; process-wide counters belong in the obs registry so they reach Snapshot and expvar", name.Name)
				}
			}
		}
	}
}

// isAtomicCounter reports whether the declared name's static type is one
// of the sync/atomic counter types.
func isAtomicCounter(pass *Pass, name *ast.Ident) bool {
	if pass.Info == nil {
		return false
	}
	obj, ok := pass.Info.Defs[name]
	if !ok || obj == nil {
		return false
	}
	named, ok := obj.Type().(*types.Named)
	if !ok || !atomicCounterTypes[named.Obj().Name()] {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && pkg.Path() == "sync/atomic"
}

// isPkgIdent reports whether the qualifier of a call resolves to the
// named package.
func isPkgIdent(pass *Pass, call *ast.CallExpr, qual, pkgName string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	if pass.Info != nil {
		if obj, ok := pass.Info.Uses[id]; ok {
			pn, isPkg := obj.(*types.PkgName)
			return isPkg && pn.Imported().Name() == pkgName
		}
	}
	return qual == pkgName
}
