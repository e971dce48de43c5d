package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// ArenaPair checks the arena ownership invariant: within a function,
// every buffer obtained from an arena allocator (exec.Arena Floats /
// FloatsZero / Ints / Int64s / Strings) must, on every control-flow path
// to a return, either be freed (Arena.Free*, BAT.ReleaseFloats, a
// deferred Arena.Close) or escape the function (returned, passed to a
// call, stored into a field, slice, map, or closure). A path that
// returns while a buffer is still exclusively local leaks the buffer's
// pool charge, a bug class that was fixed by hand more than once.
//
// The analysis is a conservative abstract interpretation over the AST:
// aliases made with plain assignment or re-slicing are tracked
// together, any escape ends tracking (no report), and functions using
// goto are skipped entirely.
var ArenaPair = &Analyzer{
	Name: "arenapair",
	Doc:  "arena allocations must be freed or escape on every control-flow path",
	Run:  runArenaPair,
}

func runArenaPair(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkArenaFunc(pass, fd.Body)
			// Function literals are their own scopes: buffers they
			// allocate must balance within them (a captured outer
			// buffer already counts as escaped for the outer walk).
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					checkArenaFunc(pass, fl.Body)
				}
				return true
			})
		}
	}
	return nil
}

// apTracker is the per-function state of the arenapair walk.
type apTracker struct {
	pass *Pass
	// root maps every tracked variable (and its aliases) to a
	// canonical representative. It only grows: escapes and frees end
	// liveness on a path, never the alias relation itself.
	root map[*types.Var]*types.Var
	// site records each root's allocation position.
	site map[*types.Var]token.Pos
	// settled marks roots covered by a deferred free: they are
	// released on every exit, so no path can leak them.
	settled map[*types.Var]bool
	// gaveUp is set on constructs the walk does not model (goto);
	// the function is then skipped without reports.
	gaveUp bool
	// deferCloseAll is set when the function defers an
	// (*exec.Arena).Close(): every allocation in scope is settled by
	// the close, so nothing leaks past a return.
	deferCloseAll bool
}

// apState is the set of roots that are live (allocated, not yet freed
// or escaped) on the current path.
type apState map[*types.Var]bool

func (s apState) clone() apState {
	c := make(apState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func (s apState) union(o apState) {
	for k := range o {
		s[k] = true
	}
}

func checkArenaFunc(pass *Pass, body *ast.BlockStmt) {
	t := &apTracker{
		pass:    pass,
		root:    map[*types.Var]*types.Var{},
		site:    map[*types.Var]token.Pos{},
		settled: map[*types.Var]bool{},
	}
	st := apState{}
	terminated := t.walkStmts(body.List, st)
	if t.gaveUp {
		return
	}
	if !terminated {
		// Implicit return at the end of the body.
		t.checkExit(st, body.End())
	}
}

// rootOf resolves a variable to its tracked representative, or nil.
func (t *apTracker) rootOf(v *types.Var) *types.Var {
	if v == nil {
		return nil
	}
	return t.root[v]
}

// identVar resolves an expression to the local variable it names, or
// nil.
func (t *apTracker) identVar(e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := t.pass.TypesInfo.Uses[id].(*types.Var)
	if v == nil {
		v, _ = t.pass.TypesInfo.Defs[id].(*types.Var)
	}
	return v
}

// trackedRootOf resolves an expression to the representative of a
// tracked variable. Re-slices of a tracked variable (x[:n], x[a:b])
// resolve to the same root.
func (t *apTracker) trackedRootOf(e ast.Expr) *types.Var {
	e = ast.Unparen(e)
	if sl, ok := e.(*ast.SliceExpr); ok {
		return t.trackedRootOf(sl.X)
	}
	return t.rootOf(t.identVar(e))
}

// isAllocCall reports whether the call allocates an arena buffer.
func (t *apTracker) isAllocCall(call *ast.CallExpr) bool {
	f := calleeFunc(t.pass.TypesInfo, call)
	if f == nil {
		return false
	}
	return isArenaMethod(f, "Floats", "FloatsZero", "Ints", "Int64s", "Strings")
}

// freeArgs returns the argument expressions a call consumes as frees,
// or nil when the call is not a free.
func (t *apTracker) freeArgs(call *ast.CallExpr) []ast.Expr {
	f := calleeFunc(t.pass.TypesInfo, call)
	if f == nil {
		return nil
	}
	if isArenaMethod(f, "FreeFloats", "FreeInts", "FreeInt64s", "FreeStrings") {
		return call.Args[:1]
	}
	// (*bat.BAT).ReleaseFloats(c, view) retires the view in arg 1.
	if rt := recvType(f); rt != nil && isNamedIn(rt, "BAT", batPkgSuffix) && f.Name() == "ReleaseFloats" && len(call.Args) == 2 {
		return call.Args[1:2]
	}
	return nil
}

// isArenaClose reports whether the call is (*exec.Arena).Close.
func (t *apTracker) isArenaClose(call *ast.CallExpr) bool {
	f := calleeFunc(t.pass.TypesInfo, call)
	return isArenaMethod(f, "Close")
}

// checkExit reports every root still live when a path leaves the
// function.
func (t *apTracker) checkExit(st apState, at token.Pos) {
	if t.deferCloseAll {
		return
	}
	for v := range st {
		if t.settled[v] {
			continue
		}
		pos := t.pass.Fset.Position(t.site[v])
		t.pass.Report(Diagnostic{
			Pos: at,
			Message: fmt.Sprintf(
				"arena buffer %q (allocated at %s:%d) is neither freed nor escaped on this return path",
				v.Name(), shortName(pos.Filename), pos.Line),
		})
	}
}

func shortName(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}

// walkStmts walks a statement list, returning whether every path
// through it terminates (returns or panics).
func (t *apTracker) walkStmts(list []ast.Stmt, st apState) bool {
	for _, s := range list {
		if t.gaveUp {
			return true
		}
		if t.walkStmt(s, st) {
			return true
		}
	}
	return false
}

func (t *apTracker) walkStmt(s ast.Stmt, st apState) (terminated bool) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		t.walkAssign(s, st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						t.bind(name, vs.Values[i], st)
					}
				}
			}
		}
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			t.walkCallStmt(call, st)
		} else {
			t.scanEscapes(s.X, st)
		}
	case *ast.DeferStmt:
		t.walkDefer(s.Call, st)
	case *ast.GoStmt:
		// The goroutine captures whatever it references.
		t.scanEscapes(s.Call.Fun, st)
		for _, a := range s.Call.Args {
			t.scanEscapes(a, st)
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			t.scanEscapes(r, st)
		}
		t.checkExit(st, s.Pos())
		return true
	case *ast.IfStmt:
		if s.Init != nil {
			t.walkStmt(s.Init, st)
		}
		t.scanEscapes(s.Cond, st)
		thenSt := st.clone()
		thenTerm := t.walkStmts(s.Body.List, thenSt)
		elseSt := st.clone()
		elseTerm := false
		if s.Else != nil {
			elseTerm = t.walkStmt(s.Else, elseSt)
		}
		for k := range st {
			delete(st, k)
		}
		if !thenTerm {
			st.union(thenSt)
		}
		if !elseTerm {
			st.union(elseSt)
		}
		return thenTerm && elseTerm
	case *ast.BlockStmt:
		return t.walkStmts(s.List, st)
	case *ast.ForStmt:
		if s.Init != nil {
			t.walkStmt(s.Init, st)
		}
		if s.Cond != nil {
			t.scanEscapes(s.Cond, st)
		}
		entry := st.clone()
		t.walkStmts(s.Body.List, st)
		if s.Post != nil {
			t.walkStmt(s.Post, st)
		}
		st.union(entry) // the loop may run zero times
	case *ast.RangeStmt:
		// Ranging over a buffer reads it; it does not move ownership.
		t.scanEscapesRead(s.X, st)
		entry := st.clone()
		t.walkStmts(s.Body.List, st)
		st.union(entry)
	case *ast.SwitchStmt:
		if s.Init != nil {
			t.walkStmt(s.Init, st)
		}
		if s.Tag != nil {
			t.scanEscapes(s.Tag, st)
		}
		t.walkClauses(s.Body.List, st, hasDefaultClause(s.Body.List))
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			t.walkStmt(s.Init, st)
		}
		t.walkClauses(s.Body.List, st, hasDefaultClause(s.Body.List))
	case *ast.SelectStmt:
		t.walkClauses(s.Body.List, st, true)
	case *ast.SendStmt:
		t.scanEscapes(s.Value, st)
	case *ast.IncDecStmt:
		// numeric only; nothing to do
	case *ast.LabeledStmt:
		return t.walkStmt(s.Stmt, st)
	case *ast.BranchStmt:
		if s.Tok == token.GOTO {
			t.gaveUp = true
		}
		// break/continue leave the enclosing construct; the loop
		// union already keeps the entry state alive.
		return true
	}
	return false
}

func hasDefaultClause(clauses []ast.Stmt) bool {
	for _, c := range clauses {
		switch cc := c.(type) {
		case *ast.CaseClause:
			if cc.List == nil {
				return true
			}
		case *ast.CommClause:
			if cc.Comm == nil {
				return true
			}
		}
	}
	return false
}

// walkClauses walks switch/select clauses, each from a copy of the
// entry state, merging the live sets of the non-terminating ones.
func (t *apTracker) walkClauses(clauses []ast.Stmt, st apState, exhaustive bool) {
	entry := st.clone()
	for k := range st {
		delete(st, k)
	}
	anyOpen := false
	for _, c := range clauses {
		var body []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				t.scanEscapes(e, entry)
			}
			body = cc.Body
		case *ast.CommClause:
			if cc.Comm != nil {
				t.walkStmt(cc.Comm, entry)
			}
			body = cc.Body
		}
		cs := entry.clone()
		if !t.walkStmts(body, cs) {
			st.union(cs)
			anyOpen = true
		}
	}
	if !exhaustive || !anyOpen {
		// Fall-through past the switch without entering any clause
		// (or every clause terminated): the entry state survives.
		st.union(entry)
	}
}

// bind handles `name := rhs` and `var name = rhs`.
func (t *apTracker) bind(name *ast.Ident, rhs ast.Expr, st apState) {
	rhs = ast.Unparen(rhs)
	v, _ := t.pass.TypesInfo.Defs[name].(*types.Var)
	if v == nil {
		v, _ = t.pass.TypesInfo.Uses[name].(*types.Var)
	}
	if call, ok := rhs.(*ast.CallExpr); ok {
		if t.isAllocCall(call) {
			// Receiver/argument expressions cannot smuggle tracked
			// buffers (they are sizes and arenas); start tracking.
			if v != nil {
				t.root[v] = v
				t.site[v] = call.Pos()
				st[v] = true
			}
			return
		}
		t.walkCallStmt(call, st)
		return
	}
	// Alias: x := tracked (or a re-slice of it) joins the root's
	// alias set instead of escaping.
	if r := t.trackedRootOf(rhs); r != nil && v != nil {
		t.root[v] = r
		return
	}
	t.scanEscapes(rhs, st)
}

func (t *apTracker) walkAssign(s *ast.AssignStmt, st apState) {
	// Single-assignment forms get alias/alloc treatment.
	if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
		lhs := ast.Unparen(s.Lhs[0])
		if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
			t.bind(id, s.Rhs[0], st)
			return
		}
		// Field/index/deref store: the RHS escapes.
		t.scanEscapes(s.Rhs[0], st)
		t.scanEscapes(lhs, st)
		return
	}
	// Multi-assign: every RHS escapes conservatively; alloc calls in
	// multi-assign position (none exist today) are not tracked.
	for _, r := range s.Rhs {
		t.scanEscapes(r, st)
	}
	for _, l := range s.Lhs {
		if _, ok := ast.Unparen(l).(*ast.Ident); !ok {
			t.scanEscapes(l, st)
		}
	}
}

// walkCallStmt processes a call in statement position: frees consume
// their arguments, Close settles everything, anything else is an
// escape of every tracked argument.
func (t *apTracker) walkCallStmt(call *ast.CallExpr, st apState) {
	if args := t.freeArgs(call); args != nil {
		for _, a := range args {
			if r := t.trackedRootOf(a); r != nil {
				delete(st, r)
			} else {
				t.scanEscapes(a, st)
			}
		}
		// The receiver (arena or BAT) expression itself cannot hold a
		// tracked buffer.
		return
	}
	if t.isArenaClose(call) {
		// An explicit inline Close settles every live buffer from
		// that arena; without per-arena provenance, settle all.
		for k := range st {
			delete(st, k)
		}
		return
	}
	t.scanEscapes(call, st)
}

// walkDefer processes a deferred call. Deferred frees and closes run
// on every exit, so their targets are settled immediately; a deferred
// closure is scanned for frees first, then for captures.
func (t *apTracker) walkDefer(call *ast.CallExpr, st apState) {
	if args := t.freeArgs(call); args != nil {
		for _, a := range args {
			if r := t.trackedRootOf(a); r != nil {
				t.deferredSettle(r, st)
			}
		}
		return
	}
	if t.isArenaClose(call) {
		t.deferCloseAll = true
		return
	}
	if fl, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		// Frees inside the deferred closure run at every exit.
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			c, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if args := t.freeArgs(c); args != nil {
				for _, a := range args {
					if r := t.trackedRootOf(a); r != nil {
						t.deferredSettle(r, st)
					}
				}
			}
			if t.isArenaClose(c) {
				t.deferCloseAll = true
			}
			return true
		})
		// Remaining references inside the closure are captures.
		t.scanEscapes(fl, st)
		return
	}
	t.scanEscapes(call, st)
}

// deferredSettle marks a root as settled on every exit (a deferred
// free covers all paths).
func (t *apTracker) deferredSettle(r *types.Var, st apState) {
	t.settled[r] = true
	delete(st, r)
}

// escape ends a root's liveness on the current path only: an escape in
// one branch says nothing about the sibling branch.
func (t *apTracker) escape(r *types.Var, st apState) {
	delete(st, r)
}

// scanEscapes walks an expression; every reference to a tracked
// variable in escaping position ends its tracking without a report.
// Non-escaping positions: indexing (x[i]), slicing used in place,
// len/cap, nil comparisons.
func (t *apTracker) scanEscapes(e ast.Expr, st apState) {
	if e == nil {
		return
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if r := t.rootOf(t.identVar(e)); r != nil {
			t.escape(r, st)
		}
	case *ast.CallExpr:
		if isBuiltinCall(t.pass.TypesInfo, e, "len") || isBuiltinCall(t.pass.TypesInfo, e, "cap") {
			return
		}
		if args := t.freeArgs(e); args != nil {
			// A free in expression position still consumes.
			for _, a := range args {
				if r := t.trackedRootOf(a); r != nil {
					delete(st, r)
				}
			}
			return
		}
		t.scanEscapes(e.Fun, st)
		for _, a := range e.Args {
			t.scanEscapes(a, st)
		}
	case *ast.SelectorExpr:
		t.scanEscapes(e.X, st)
	case *ast.IndexExpr:
		// Reading or writing an element does not move the buffer.
		t.scanEscapesRead(e.X, st)
		t.scanEscapes(e.Index, st)
	case *ast.SliceExpr:
		// A re-slice in escaping position escapes the base.
		t.scanEscapes(e.X, st)
		t.scanEscapes(e.Low, st)
		t.scanEscapes(e.High, st)
		t.scanEscapes(e.Max, st)
	case *ast.StarExpr:
		t.scanEscapes(e.X, st)
	case *ast.UnaryExpr:
		t.scanEscapes(e.X, st)
	case *ast.BinaryExpr:
		// Comparisons and arithmetic read values; a slice can only
		// appear in == nil / != nil, which does not escape it.
		t.scanEscapesRead(e.X, st)
		t.scanEscapesRead(e.Y, st)
	case *ast.KeyValueExpr:
		t.scanEscapes(e.Key, st)
		t.scanEscapes(e.Value, st)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			t.scanEscapes(el, st)
		}
	case *ast.TypeAssertExpr:
		t.scanEscapes(e.X, st)
	case *ast.FuncLit:
		// Capturing a tracked buffer hands it to code whose timing
		// the walk cannot see: escape.
		ast.Inspect(e.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if r := t.rootOf(t.identVar(id)); r != nil {
					t.escape(r, st)
				}
			}
			return true
		})
	}
}

// scanEscapesRead walks an expression in read-only position: bare
// tracked identifiers stay tracked, everything else falls back to the
// escape scan.
func (t *apTracker) scanEscapesRead(e ast.Expr, st apState) {
	if e == nil {
		return
	}
	if _, ok := ast.Unparen(e).(*ast.Ident); ok {
		return
	}
	t.scanEscapes(e, st)
}
