package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"github.com/fix-index/fix/tools/fixvet/cfg"
)

// paircheckAnalyzer proves acquire/release pairing on every control-flow
// path. Where lockcheck's rules are about which lock guards what,
// paircheck is about the shape of the critical section itself: a
// resource acquired on a path must be released on every continuation of
// that path, including early returns and explicit panics.
//
// Tracked pairs:
//
//   - mutexes: x.Lock()/x.Unlock(), x.RLock()/x.RUnlock() (read and
//     write modes tracked separately)
//   - generation pins: g.Pin()/g.Unpin(); `if g.Pin() { ... }` attributes
//     the acquire to the true branch only; g := ix.Freeze() hands the
//     caller a reference it must Unpin
//   - views and other closable handles: v := x.View() must reach
//     v.Close(); m, err := db.StartMaintainer(...) must reach m.Close()
//   - release funcs: cancel from context.WithCancel/WithTimeout/
//     WithDeadline, and the release func returned by Acquire* APIs, must
//     be called (the classic lostcancel bug)
//   - phase timers: t := time.Now() observed via time.Since(t)/x.Sub(t)
//     on some paths must be observed on all of them (error returns and
//     panic paths are exempt for timers only); one named as a phase
//     timer (start, xxxStart) must be observed on some path
//
// A release inside `defer` (directly or in a deferred closure) satisfies
// every path. Handing the resource off — returning it, storing it in a
// struct or global, passing it to another function, capturing it in a
// closure — transfers the release obligation and ends tracking.
//
// Annotation vocabulary (function doc comments):
//
//   - `// paircheck: releases(X)` — the body must contain a release call
//     mentioning X. Use it on release-only functions (View.Close unpins
//     v.gen) so deleting the release line fails the build.
//   - `// paircheck: acquires(X)` — dual obligation for acquire-only
//     functions.
//   - `// paircheck: ignore(X)` — stop tracking resources matching X in
//     this function; bare `paircheck: ignore` skips the whole function.
//     Every use needs a justifying comment.
var paircheckAnalyzer = &Analyzer{
	Name: "paircheck",
	Doc: "acquire/release pairs (Lock/Unlock, Pin/Unpin, View/Close, " +
		"cancel funcs, phase timers) must match on every CFG path; " +
		"`// paircheck: acquires/releases(X)` declares obligations",
	Run: runPaircheck,
}

type pairKind int

const (
	pairMutex pairKind = iota
	pairPin
	pairHandle
	pairTimer
)

func (k pairKind) String() string {
	switch k {
	case pairMutex:
		return "mutex"
	case pairPin:
		return "pin"
	case pairHandle:
		return "handle"
	default:
		return "timer"
	}
}

// pairResource is one tracked obligation inside a single function.
type pairResource struct {
	id      int
	kind    pairKind
	key     string // mutex/pin: receiver expr ("/R" suffix for read mode); handle/timer: variable name
	desc    string // rendered for messages: "db.mu", "v (from db.View())"
	relVerb string // what a release looks like, for messages
	pos     token.Pos
	errVar  string // handle acquired alongside an error result: error path exempt

	releases        int
	deferred        bool
	escaped         bool
	closureObserved bool // timer: a time.Since/Sub of it inside a closure
}

// pairEvent is an acquire or release at a point in a block.
type pairEvent struct {
	res     *pairResource
	acquire bool
}

var pairObligationRe = regexp.MustCompile(`paircheck:\s*(acquires|releases|ignore)(?:\(([^)]*)\))?`)

func runPaircheck(pass *Pass) {
	for _, f := range pass.Files {
		funcsIn(f, func(fd *ast.FuncDecl, body *ast.BlockStmt) {
			ignoreAll, ignoreKeys := pairIgnores(fd.Doc)
			checkPairObligations(pass, fd)
			if !ignoreAll {
				analyzePairs(pass, fd.Name.Name, body, ignoreKeys)
			}
			// Closures are functions too: goroutine bodies and deferred
			// cleanups get their own graphs (the enclosing analysis skips
			// their interiors).
			ast.Inspect(body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok && !ignoreAll {
					analyzePairs(pass, fd.Name.Name+" (func literal)", fl.Body, ignoreKeys)
				}
				return true
			})
		})
	}
}

// pairIgnores parses `paircheck: ignore` / `paircheck: ignore(X)` from a
// doc comment.
func pairIgnores(doc *ast.CommentGroup) (all bool, keys []string) {
	if doc == nil {
		return false, nil
	}
	for _, m := range pairObligationRe.FindAllStringSubmatch(doc.Text(), -1) {
		if m[1] != "ignore" {
			continue
		}
		if m[2] == "" {
			return true, nil
		}
		keys = append(keys, strings.TrimSpace(m[2]))
	}
	return false, keys
}

// checkPairObligations enforces declared acquires(X)/releases(X): the
// body must contain a matching call. The annotation exists for functions
// whose counterpart lives elsewhere (View.Close releases a pin acquired
// in DB.View), so deleting the release line is caught even though no
// intra-procedural pair breaks.
func checkPairObligations(pass *Pass, fd *ast.FuncDecl) {
	if fd.Doc == nil {
		return
	}
	for _, m := range pairObligationRe.FindAllStringSubmatch(fd.Doc.Text(), -1) {
		verb, arg := m[1], strings.TrimSpace(m[2])
		if verb == "ignore" || arg == "" {
			continue
		}
		want := map[string]bool{}
		if verb == "acquires" {
			for _, v := range []string{"Lock", "RLock", "Pin", "TryLock"} {
				want[v] = true
			}
		} else {
			for _, v := range []string{"Unlock", "RUnlock", "Unpin", "Close", "Stop"} {
				want[v] = true
			}
		}
		found := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if found {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			expr := exprString(call.Fun)
			if sel, isSel := call.Fun.(*ast.SelectorExpr); isSel {
				if want[sel.Sel.Name] && strings.Contains(exprString(sel.X), arg) {
					found = true
				}
			} else if verb == "releases" && expr == arg {
				found = true // release func called by name: cancel()
			}
			return true
		})
		if !found {
			pass.Reportf(fd.Pos(), "%s declares `paircheck: %s(%s)` but its body has no matching %s call",
				fd.Name.Name, verb, arg, verb[:len(verb)-1])
		}
	}
}

// pairState carries one function's analysis.
type pairState struct {
	pass    *Pass
	name    string
	ignores []string
	g       *cfg.Graph
	byKey   map[string]*pairResource
	list    []*pairResource
	events  map[*cfg.Block][]pairEvent
	pre     map[*cfg.Block][]pairEvent // branch-attributed events, run at block entry
	cond    map[*ast.CallExpr]bool     // acquire calls consumed by if-condition attribution
	thenOf  map[*cfg.Block]*ast.IfStmt
}

func analyzePairs(pass *Pass, name string, body *ast.BlockStmt, ignores []string) {
	if body == nil {
		return
	}
	st := &pairState{
		pass:    pass,
		name:    name,
		ignores: ignores,
		g:       cfg.New(body),
		byKey:   map[string]*pairResource{},
		events:  map[*cfg.Block][]pairEvent{},
		pre:     map[*cfg.Block][]pairEvent{},
		cond:    map[*ast.CallExpr]bool{},
		thenOf:  map[*cfg.Block]*ast.IfStmt{},
	}
	for ifStmt, info := range st.g.Ifs {
		st.thenOf[info.Then] = ifStmt
	}
	st.condAcquires()
	st.scanBlocks(true)  // acquires
	st.scanBlocks(false) // releases
	st.errGuardKills()
	st.liftGuardedTimerReleases()
	st.scanDefers()
	st.scanEscapes(body)
	st.report()
}

// ignored reports whether a resource key was waived by ignore(X).
func (st *pairState) ignored(key string) bool {
	for _, ig := range st.ignores {
		if strings.Contains(key, ig) {
			return true
		}
	}
	return false
}

// resource interns a tracked resource by kind+key.
func (st *pairState) resource(kind pairKind, key, desc, relVerb string, pos token.Pos) *pairResource {
	full := kind.String() + ":" + key
	if r, ok := st.byKey[full]; ok {
		return r
	}
	if st.ignored(key) {
		return nil
	}
	r := &pairResource{id: len(st.list), kind: kind, key: key, desc: desc, relVerb: relVerb, pos: pos}
	st.byKey[full] = r
	st.list = append(st.list, r)
	return r
}

// lookup finds an existing resource without creating one.
func (st *pairState) lookup(kind pairKind, key string) *pairResource {
	return st.byKey[kind.String()+":"+key]
}

// condAcquires attributes conditional acquisitions — `if g.Pin() { ... }`,
// `if mu.TryLock() { ... }` — to the branch where they hold: the true
// branch, or the false branch under negation.
func (st *pairState) condAcquires() {
	for ifStmt, info := range st.g.Ifs {
		target := info.Then
		cond := ifStmt.Cond
		if un, ok := cond.(*ast.UnaryExpr); ok && un.Op == token.NOT {
			cond, target = un.X, info.Else
		}
		call, ok := cond.(*ast.CallExpr)
		if !ok {
			continue
		}
		res := st.classifyCondAcquire(call)
		if res == nil {
			continue
		}
		st.cond[call] = true
		st.pre[target] = append(st.pre[target], pairEvent{res: res, acquire: true})
	}
}

// classifyCondAcquire recognizes bool-returning acquire calls.
func (st *pairState) classifyCondAcquire(call *ast.CallExpr) *pairResource {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	recv := exprString(sel.X)
	switch sel.Sel.Name {
	case "Pin":
		return st.resource(pairPin, recv, recv, "Unpin", call.Pos())
	case "TryLock":
		if st.isMutexRecv(sel) {
			return st.resource(pairMutex, recv, recv, "Unlock", call.Pos())
		}
	case "TryRLock":
		if st.isMutexRecv(sel) {
			return st.resource(pairMutex, recv+"/R", recv, "RUnlock", call.Pos())
		}
	}
	return nil
}

// isMutexRecv reports whether a method selector's receiver is a
// sync.Mutex/RWMutex — by type info (which also resolves promoted
// methods) or, failing that, by the mu-naming convention.
func (st *pairState) isMutexRecv(sel *ast.SelectorExpr) bool {
	if st.pass.Info != nil {
		if s, ok := st.pass.Info.Selections[sel]; ok {
			if fn, ok := s.Obj().(*types.Func); ok && fn.Pkg() != nil {
				return fn.Pkg().Path() == "sync"
			}
		}
		if tv, ok := st.pass.Info.Types[sel.X]; ok {
			if named := namedOf(tv.Type); named != nil {
				if named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync" {
					return named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex"
				}
				return false
			}
		}
	}
	base := exprString(sel.X)
	if i := strings.LastIndex(base, "."); i >= 0 {
		base = base[i+1:]
	}
	lower := strings.ToLower(base)
	return strings.Contains(lower, "mu") || strings.Contains(lower, "lock")
}

// scanBlocks walks every block's nodes in execution order collecting
// acquire events (first sweep) then release events (second sweep —
// releases can only bind to resources the first sweep discovered).
func (st *pairState) scanBlocks(acquires bool) {
	for _, b := range st.g.Blocks {
		for _, node := range b.Nodes {
			st.scanNode(b, node, acquires)
		}
	}
}

// scanNode extracts events from one block-level node. Defer statements
// are exit-time effects handled by scanDefers; range statements carry
// their body in the AST but not in execution order, so only the range
// expression is scanned here; closures are separate functions.
func (st *pairState) scanNode(b *cfg.Block, node ast.Node, acquires bool) {
	switch n := node.(type) {
	case *ast.DeferStmt:
		return
	case *ast.RangeStmt:
		if n.X != nil {
			st.scanExpr(b, n.X, acquires)
		}
		return
	}
	st.scanExpr(b, node, acquires)
}

func (st *pairState) scanExpr(b *cfg.Block, node ast.Node, acquires bool) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if acquires {
				st.assignAcquire(b, x)
			}
			return true
		case *ast.CallExpr:
			if acquires {
				st.callAcquire(b, x)
			} else {
				st.callRelease(b, x)
			}
			return true
		}
		return true
	})
}

// assignAcquire recognizes handle- and timer-producing assignments:
// v := x.View(), g := ix.Freeze(), m, err := db.StartMaintainer(...),
// t := time.Now(), ctx, cancel := context.WithCancel(...),
// h, release, err := s.Acquire(...).
func (st *pairState) assignAcquire(b *cfg.Block, as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	lhsIdent := func(i int) *ast.Ident {
		if i >= len(as.Lhs) {
			return nil
		}
		id, ok := as.Lhs[i].(*ast.Ident)
		if !ok || id.Name == "_" {
			return nil
		}
		return id
	}

	// t := time.Now()
	if isPkgCall(st.pass.Info, call, "time", "Now") && len(as.Lhs) == 1 {
		if id := lhsIdent(0); id != nil {
			r := st.resource(pairTimer, id.Name, id.Name+" (time.Now())", "time.Since", as.Pos())
			if r != nil {
				st.events[b] = append(st.events[b], pairEvent{res: r, acquire: true})
			}
		}
		return
	}

	// v := x.View() must reach v.Close(); g := ix.Freeze() hands the caller
	// a generation reference it must Unpin. Only when the result type
	// really has that method, so value-semantic snapshots (a storage
	// view) stay untracked.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && len(as.Lhs) == 1 && (sel.Sel.Name == "View" || sel.Sel.Name == "Freeze") {
		kind, release := pairHandle, "Close"
		if sel.Sel.Name == "Freeze" {
			kind, release = pairPin, "Unpin"
		}
		if id := lhsIdent(0); id != nil && st.hasMethod(call, release) {
			r := st.resource(kind, id.Name, id.Name+" (from "+exprString(call.Fun)+")", release, as.Pos())
			if r != nil {
				st.events[b] = append(st.events[b], pairEvent{res: r, acquire: true})
			}
		}
		return
	}

	// m, err := db.StartMaintainer(...) starts a background loop that runs
	// until m.Close(); the error path returns no live loop.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && len(as.Lhs) == 2 && sel.Sel.Name == "StartMaintainer" {
		if id := lhsIdent(0); id != nil {
			r := st.resource(pairHandle, id.Name, id.Name+" (from "+exprString(call.Fun)+")", "Close", as.Pos())
			if r != nil {
				if errID := lhsIdent(1); errID != nil {
					r.errVar = errID.Name
				}
				st.events[b] = append(st.events[b], pairEvent{res: r, acquire: true})
			}
		}
		return
	}

	// Release funcs: context.WithCancel/WithTimeout/WithDeadline, and
	// Acquire*-style APIs returning a func() alongside an error.
	isCtx := isPkgCall(st.pass.Info, call, "context", "WithCancel") ||
		isPkgCall(st.pass.Info, call, "context", "WithTimeout") ||
		isPkgCall(st.pass.Info, call, "context", "WithDeadline")
	_, calleeN := calleeName(call)
	isAcq := strings.HasPrefix(calleeN, "Acquire")
	if !isCtx && !isAcq {
		return
	}
	errVar := ""
	if last := lhsIdent(len(as.Lhs) - 1); last != nil && isErrorExpr(st.pass.Info, last) {
		errVar = last.Name
	}
	for i := range as.Lhs {
		id := lhsIdent(i)
		if id == nil || id.Name == errVar {
			continue
		}
		if !st.isReleaseFunc(id) {
			continue
		}
		r := st.resource(pairHandle, id.Name, id.Name+" (from "+exprString(call.Fun)+")", "call", as.Pos())
		if r != nil {
			r.errVar = errVar
			st.events[b] = append(st.events[b], pairEvent{res: r, acquire: true})
		}
	}
}

// isReleaseFunc reports whether an assigned identifier is a nullary
// cleanup function: func() by type, or cancel/release-shaped by name
// when type info is unavailable.
func (st *pairState) isReleaseFunc(id *ast.Ident) bool {
	if st.pass.Info != nil {
		obj := st.pass.Info.Defs[id]
		if obj == nil {
			obj = st.pass.Info.Uses[id]
		}
		if obj != nil && obj.Type() != nil {
			if sig, ok := obj.Type().Underlying().(*types.Signature); ok {
				return sig.Params().Len() == 0
			}
			return false
		}
	}
	lower := strings.ToLower(id.Name)
	for _, n := range []string{"cancel", "release", "cleanup", "stop", "done"} {
		if strings.Contains(lower, n) {
			return true
		}
	}
	return false
}

// hasMethod reports whether the call's result type has a method of the
// given name.
func (st *pairState) hasMethod(call *ast.CallExpr, name string) bool {
	if st.pass.Info == nil {
		return false
	}
	tv, ok := st.pass.Info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	ms := types.NewMethodSet(t)
	if _, ok := t.Underlying().(*types.Pointer); !ok {
		ms = types.NewMethodSet(types.NewPointer(t))
	}
	for i := 0; i < ms.Len(); i++ {
		if ms.At(i).Obj().Name() == name {
			return true
		}
	}
	return false
}

// callAcquire records unconditional mutex and pin acquisitions.
func (st *pairState) callAcquire(b *cfg.Block, call *ast.CallExpr) {
	if st.cond[call] {
		return // attributed to a branch by condAcquires
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	recv := exprString(sel.X)
	var r *pairResource
	switch sel.Sel.Name {
	case "Lock":
		if st.isMutexRecv(sel) {
			r = st.resource(pairMutex, recv, recv, "Unlock", call.Pos())
		}
	case "RLock":
		if st.isMutexRecv(sel) {
			r = st.resource(pairMutex, recv+"/R", recv, "RUnlock", call.Pos())
		}
	case "Pin":
		r = st.resource(pairPin, recv, recv, "Unpin", call.Pos())
	}
	if r != nil {
		st.events[b] = append(st.events[b], pairEvent{res: r, acquire: true})
	}
}

// callRelease records releases of already-discovered resources.
func (st *pairState) callRelease(b *cfg.Block, call *ast.CallExpr) {
	if r := st.releaseTarget(call); r != nil {
		r.releases++
		st.events[b] = append(st.events[b], pairEvent{res: r})
	}
}

// releaseTarget resolves which tracked resource a call releases, if any.
func (st *pairState) releaseTarget(call *ast.CallExpr) *pairResource {
	// cancel() / release()
	if id, ok := call.Fun.(*ast.Ident); ok {
		return st.lookup(pairHandle, id.Name)
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	recv := exprString(sel.X)
	switch sel.Sel.Name {
	case "Unlock":
		return st.lookup(pairMutex, recv)
	case "RUnlock":
		return st.lookup(pairMutex, recv+"/R")
	case "Unpin":
		return st.lookup(pairPin, recv)
	case "Close":
		return st.lookup(pairHandle, recv)
	case "Since", "Sub":
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok {
				if r := st.lookup(pairTimer, id.Name); r != nil {
					return r
				}
			}
		}
	}
	return nil
}

// errGuardKills exempts the error path of handle acquisitions that came
// with an error result: after `h, release, err := Acquire(...)`, the
// `if err != nil { return ... }` branch does not owe a release (the API
// returns no live resource on error).
func (st *pairState) errGuardKills() {
	for _, r := range st.list {
		if r.errVar == "" {
			continue
		}
		for ifStmt, info := range st.g.Ifs {
			bin, ok := ifStmt.Cond.(*ast.BinaryExpr)
			if !ok || bin.Op != token.NEQ {
				continue
			}
			x, y := bin.X, bin.Y
			if isNilIdent(x) {
				x, y = y, x
			}
			id, ok := x.(*ast.Ident)
			if ok && id.Name == r.errVar && isNilIdent(y) {
				st.pre[info.Then] = append(st.pre[info.Then], pairEvent{res: r})
			}
		}
	}
}

// liftGuardedTimerReleases handles the nil-guarded trace write idiom:
//
//	if tr != nil { tr.Parse = time.Since(start) }
//
// The observation is deliberately conditional, so the release is lifted
// to the condition block — both branches count as observed, and the
// false branch is not reported as a missing observation.
func (st *pairState) liftGuardedTimerReleases() {
	for b, evs := range st.events {
		ifStmt, isThen := st.thenOf[b]
		if !isThen {
			continue
		}
		bin, ok := ifStmt.Cond.(*ast.BinaryExpr)
		if !ok || bin.Op != token.NEQ || !(isNilIdent(bin.X) || isNilIdent(bin.Y)) {
			continue
		}
		info := st.g.Ifs[ifStmt]
		kept := evs[:0]
		for _, ev := range evs {
			if !ev.acquire && ev.res.kind == pairTimer {
				st.events[info.Cond] = append(st.events[info.Cond], ev)
				continue
			}
			kept = append(kept, ev)
		}
		st.events[b] = kept
	}
}

// scanDefers marks resources released by deferred calls — directly
// (defer mu.Unlock()) or inside a deferred closure. The CFG treats
// defers as running at every exit, so a deferred release satisfies all
// paths including panic.
func (st *pairState) scanDefers() {
	for _, d := range st.g.Defers {
		if fl, ok := d.Call.Fun.(*ast.FuncLit); ok {
			ast.Inspect(fl.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if r := st.releaseTarget(call); r != nil {
						r.deferred = true
					}
				}
				return true
			})
			continue
		}
		if r := st.releaseTarget(d.Call); r != nil {
			r.deferred = true
		}
	}
}

// scanEscapes marks resources whose obligation transfers out of the
// function: returned, stored into a field or global, passed to another
// function, sent on a channel, or captured by a closure. Method calls
// on the resource (v.Close(), now.After(x)) are uses, not transfers.
func (st *pairState) scanEscapes(body *ast.BlockStmt) {
	byName := map[string][]*pairResource{}
	for _, r := range st.list {
		name := r.key
		if r.kind == pairMutex {
			continue // lock identity is not a first-class value here
		}
		name = strings.TrimSuffix(name, "/R")
		if strings.ContainsAny(name, ".[(") {
			// Compound receiver (v.gen): can't track the value; assume the
			// obligation lives with the owner. Pins on fields are covered
			// by paircheck: releases(...) annotations instead.
			r.escaped = true
			continue
		}
		byName[name] = append(byName[name], r)
	}
	if len(byName) == 0 {
		return
	}
	parents := buildParents(body)
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		rs := byName[id.Name]
		if len(rs) == 0 {
			return true
		}
		escapes := st.identEscapes(id, parents)
		for _, r := range rs {
			r.escaped = r.escaped || escapes
			if r.kind == pairTimer && !r.closureObserved {
				r.closureObserved = st.observedInClosure(id, parents)
			}
		}
		return true
	})
}

// observedInClosure reports whether a use of a timer is a time.Since or
// x.Sub argument inside a function literal.
func (st *pairState) observedInClosure(id *ast.Ident, parents parentMap) bool {
	call, ok := parents[id].(*ast.CallExpr)
	if !ok || st.releaseTarget(call) == nil {
		return false
	}
	for n := parents[call]; n != nil; n = parents[n] {
		if _, ok := n.(*ast.FuncLit); ok {
			return true
		}
	}
	return false
}

// identEscapes classifies one use of a tracked identifier.
func (st *pairState) identEscapes(id *ast.Ident, parents parentMap) bool {
	parent := parents[id]
	// v.Close(), v.Foo, v.field — selector base: a use, not a transfer.
	if sel, ok := parent.(*ast.SelectorExpr); ok && sel.X == id {
		return false
	}
	// Direct argument to a call that is not a recorded release.
	if call, ok := parent.(*ast.CallExpr); ok {
		if call.Fun == id {
			return false // cancel() — the release itself
		}
		if st.releaseTarget(call) != nil {
			return false // time.Since(t)
		}
		return true
	}
	if as, ok := parent.(*ast.AssignStmt); ok {
		for _, lhs := range as.Lhs {
			if lhs == id {
				return false // (re)definition, not a use
			}
		}
		return true // aliased or stored somewhere
	}
	if send, ok := parent.(*ast.SendStmt); ok && send.Value == id {
		return true
	}
	// Anything under a return, composite literal, or closure transfers.
	for n := parent; n != nil; n = parents[n] {
		switch n.(type) {
		case *ast.ReturnStmt, *ast.CompositeLit, *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return true
		case *ast.BlockStmt:
			return false
		}
	}
	return false
}

// report runs the dataflow for partially-released resources and emits
// findings.
func (st *pairState) report() {
	var tracked []*pairResource
	for _, r := range st.list {
		if r.kind == pairTimer && r.releases == 0 {
			// Handing a timer on observes nothing, so escapes do not
			// excuse a phase timer that no path observes.
			if !r.deferred && !r.closureObserved && strings.HasSuffix(strings.ToLower(r.key), "start") {
				st.pass.Reportf(r.pos, "phase timer %s in %s is started but never observed with time.Since; the phase goes unmeasured",
					r.key, st.name)
			}
			continue
		}
		if r.deferred || r.escaped {
			continue
		}
		if r.releases == 0 {
			st.pass.Reportf(r.pos, "%s %s in %s is never released (no %s on any path)",
				r.kind, r.desc, st.name, r.relVerb)
			continue
		}
		tracked = append(tracked, r)
	}
	if len(tracked) == 0 {
		return
	}
	final := map[*cfg.Block][]pairEvent{}
	for b, evs := range st.events {
		final[b] = evs
	}
	for b, evs := range st.pre {
		final[b] = append(append([]pairEvent{}, evs...), final[b]...)
	}
	_, out := cfg.Forward(st.g, len(st.list), func(b *cfg.Block, in cfg.BitSet) cfg.BitSet {
		for _, ev := range final[b] {
			if ev.acquire {
				in.Set(ev.res.id)
			} else {
				in.Clear(ev.res.id)
			}
		}
		return in
	})
	preds := st.g.Preds()
	for _, r := range tracked {
		st.reportLeaks(r, preds, out)
	}
}

// reportLeaks emits one finding per resource that survives to an exit on
// some path.
func (st *pairState) reportLeaks(r *pairResource, preds map[*cfg.Block][]*cfg.Block, out map[*cfg.Block]cfg.BitSet) {
	for _, p := range preds[st.g.Exit] {
		if !out[p].Has(r.id) {
			continue
		}
		if r.kind == pairTimer && st.endsInErrorReturn(p) {
			continue
		}
		at := "falling off the end"
		if ret := lastReturn(p); ret != nil {
			at = fmt.Sprintf("the return at line %d", st.lineOf(ret.Pos()))
		}
		st.pass.Reportf(r.pos, "%s %s in %s is released on some paths but not when %s",
			r.kind, r.desc, st.name, at)
		return
	}
	if r.kind == pairTimer {
		return // timers are harmless across panic
	}
	for _, p := range preds[st.g.Panic] {
		if out[p].Has(r.id) {
			st.pass.Reportf(r.pos, "%s %s in %s is still held when the panic at line %d fires (release it or use defer)",
				r.kind, r.desc, st.name, st.lineOf(p.Nodes[len(p.Nodes)-1].Pos()))
			return
		}
	}
}

func (st *pairState) lineOf(pos token.Pos) int {
	return st.pass.Fset.Position(pos).Line
}

// lastReturn returns the trailing return statement of a block, if any.
func lastReturn(b *cfg.Block) *ast.ReturnStmt {
	for i := len(b.Nodes) - 1; i >= 0; i-- {
		if ret, ok := b.Nodes[i].(*ast.ReturnStmt); ok {
			return ret
		}
	}
	return nil
}

// endsInErrorReturn reports whether the block's exit is an error return:
// its return statement's last result is a non-nil error expression.
// Timer observations are not owed on failure paths — latency of a failed
// operation is recorded by the error counters, not the phase timers.
func (st *pairState) endsInErrorReturn(b *cfg.Block) bool {
	ret := lastReturn(b)
	if ret == nil || len(ret.Results) == 0 {
		return false
	}
	last := ret.Results[len(ret.Results)-1]
	if isNilIdent(last) {
		return false
	}
	return isErrorExpr(st.pass.Info, last)
}
