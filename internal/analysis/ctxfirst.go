package analysis

import (
	"fmt"
	"go/ast"
)

// CtxFirst checks the kernel calling convention: an exported function
// or method in internal/bat, internal/batlin, internal/linalg,
// internal/rel, or internal/matrix that allocates (any exec.Arena
// method) or fans out (any exec.Ctx method, or a call that forwards a
// non-nil *exec.Ctx) must take *exec.Ctx as its first parameter.
// Convenience wrappers that delegate with an explicit nil context are
// allowed — nil-safety is part of the Ctx contract. These packages fan
// out only through (*exec.Ctx).ParallelFor, which honours the worker
// budget, counts its goroutines and forwards their panics, so a go
// statement in their non-test code is reported too.
var CtxFirst = &Analyzer{
	Name: "ctxfirst",
	Doc:  "exported kernel functions that allocate or fan out take *exec.Ctx first; kernels start no goroutine of their own",
	Run:  runCtxFirst,
}

func runCtxFirst(pass *Pass) error {
	if !inSuffixList(pass.Pkg.Path(), ctxFirstPkgs) {
		return nil
	}
	for _, f := range pass.Files {
		if !inTestFile(pass, f) {
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					pass.Report(Diagnostic{
						Pos:     g.Go,
						Message: "go statement in a kernel package: fan out through (*exec.Ctx).ParallelFor",
					})
				}
				return true
			})
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			if inTestFile(pass, fd) {
				continue
			}
			if recvIsUnexported(fd) {
				continue
			}
			if funcTakesCtxFirst(pass, fd) {
				continue
			}
			if reason := ctxFirstTrigger(pass, fd.Body); reason != "" {
				kind := "function"
				if fd.Recv != nil {
					kind = "method"
				}
				pass.Report(Diagnostic{
					Pos: fd.Name.Pos(),
					Message: fmt.Sprintf(
						"exported %s %s %s but does not take *exec.Ctx as its first parameter",
						kind, fd.Name.Name, reason),
				})
			}
		}
	}
	return nil
}

// recvIsUnexported reports whether fd is a method on an unexported
// type (not externally reachable, so not part of the convention).
func recvIsUnexported(fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	t := fd.Recv.List[0].Type
	if st, ok := t.(*ast.StarExpr); ok {
		t = st.X
	}
	if ix, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = ix.X
	}
	id, ok := t.(*ast.Ident)
	return ok && !id.IsExported()
}

// funcTakesCtxFirst reports whether the declared function's first
// parameter is *exec.Ctx.
func funcTakesCtxFirst(pass *Pass, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil || len(fd.Type.Params.List) == 0 {
		return false
	}
	tv, ok := pass.TypesInfo.Types[fd.Type.Params.List[0].Type]
	return ok && isCtxType(tv.Type)
}

// ctxFirstTrigger scans a body for allocation or fan-out and returns a
// human-readable description of the first trigger, or "".
func ctxFirstTrigger(pass *Pass, body *ast.BlockStmt) string {
	var reason string
	ast.Inspect(body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := calleeFunc(pass.TypesInfo, call)
		if f == nil {
			return true
		}
		switch {
		case isCtxMethod(f):
			reason = fmt.Sprintf("fans out through (*exec.Ctx).%s", f.Name())
		case isArenaMethod(f):
			reason = fmt.Sprintf("allocates through (*exec.Arena).%s", f.Name())
		case firstParamIsCtx(f) && len(call.Args) > 0 && !isNilIdent(pass.TypesInfo, call.Args[0]):
			reason = fmt.Sprintf("forwards a non-nil context to %s", f.Name())
		}
		return reason == ""
	})
	return reason
}
