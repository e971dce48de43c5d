package analysis

import (
	"go/ast"
	"go/types"
)

// Package-path suffixes the analyzers key on. Matching is by suffix on
// a segment boundary (pathHasSuffix) so the same analyzers run
// unchanged against the real tree ("repro/internal/bat") and against
// fixture packages ("ctxfirst/internal/bat").
const (
	execPkgSuffix = "internal/exec"
	batPkgSuffix  = "internal/bat"
)

// ctxFirstPkgs are the kernel packages whose exported allocating or
// fanning-out functions must take *exec.Ctx first.
var ctxFirstPkgs = []string{
	"internal/bat", "internal/batlin", "internal/linalg",
	"internal/rel", "internal/matrix",
}

// budgetBoundaryPkgs are the packages whose exported error-returning
// functions form the API boundary above the budget-panicking kernels.
var budgetBoundaryPkgs = []string{
	"internal/core", "internal/sql", "cmd/rmaserver",
}

// kernelPkgs are the packages whose functions may allocate from an
// accounted arena (and therefore unwind with a budget panic).
// internal/exec is deliberately absent: arena allocations are matched
// as *exec.Arena method calls directly (including inside closures), so
// listing the package here would only poison benign helpers such as
// exec.Default or exec.Shared with phantom risk.
var kernelPkgs = []string{
	"internal/bat", "internal/batlin", "internal/linalg",
	"internal/rel", "internal/matrix", "internal/store",
}

func inSuffixList(path string, suffixes []string) bool {
	for _, s := range suffixes {
		if pathHasSuffix(path, s) {
			return true
		}
	}
	return false
}

// namedOf unwraps pointers and aliases down to a named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Alias:
			t = types.Unalias(tt)
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

// isNamedIn reports whether t (possibly behind pointers) is the named
// type name declared in a package whose path ends in pkgSuffix.
func isNamedIn(t types.Type, name, pkgSuffix string) bool {
	n := namedOf(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == name && pathHasSuffix(n.Obj().Pkg().Path(), pkgSuffix)
}

func isArenaType(t types.Type) bool { return isNamedIn(t, "Arena", execPkgSuffix) }
func isCtxType(t types.Type) bool   { return isNamedIn(t, "Ctx", execPkgSuffix) }

// calleeFunc resolves the static callee of a call, or nil for calls
// through function values, builtins, and type conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel] // package-qualified call
		}
	}
	f, _ := obj.(*types.Func)
	return f
}

// isBuiltinCall reports whether the call invokes the named builtin.
func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// recvType returns the receiver type of a method, or nil for plain
// functions.
func recvType(f *types.Func) types.Type {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return sig.Recv().Type()
}

// isArenaMethod reports whether f is a method on exec.Arena with one of
// the given names (any name if names is empty).
func isArenaMethod(f *types.Func, names ...string) bool {
	if f == nil {
		return false
	}
	rt := recvType(f)
	if rt == nil || !isArenaType(rt) {
		return false
	}
	if len(names) == 0 {
		return true
	}
	for _, n := range names {
		if f.Name() == n {
			return true
		}
	}
	return false
}

// isCtxMethod reports whether f is a method on exec.Ctx.
func isCtxMethod(f *types.Func) bool {
	if f == nil {
		return false
	}
	rt := recvType(f)
	return rt != nil && isCtxType(rt)
}

// isPkgFunc reports whether f is a package-level function with one of
// the given names in a package whose path ends in pkgSuffix.
func isPkgFunc(f *types.Func, pkgSuffix string, names ...string) bool {
	if f == nil || f.Pkg() == nil || recvType(f) != nil {
		return false
	}
	if !pathHasSuffix(f.Pkg().Path(), pkgSuffix) {
		return false
	}
	for _, n := range names {
		if f.Name() == n {
			return true
		}
	}
	return false
}

// firstParamIsCtx reports whether f's first parameter is *exec.Ctx.
func firstParamIsCtx(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return false
	}
	return isCtxType(sig.Params().At(0).Type())
}

// lastResultIsError reports whether f's final result is error.
func lastResultIsError(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	n := namedOf(last)
	return n != nil && n.Obj() != nil && n.Obj().Pkg() == nil && n.Obj().Name() == "error"
}

// isNilIdent reports whether the expression is the untyped nil
// identifier.
func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name != "nil" {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}

// inTestFile reports whether pos falls in a _test.go file.
func inTestFile(pass *Pass, pos ast.Node) bool {
	name := pass.Fset.Position(pos.Pos()).Filename
	return len(name) >= 8 && name[len(name)-8:] == "_test.go"
}
