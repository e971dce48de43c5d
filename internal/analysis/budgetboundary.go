package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// BudgetBoundary checks the budget-panic containment invariant: an
// accounted arena rejects an over-budget allocation by panicking with a
// typed value that exec.CatchBudget converts back into ErrMemoryBudget
// at the nearest error-returning API boundary. Every exported
// error-returning function in internal/core, internal/sql, and
// cmd/rmaserver whose call graph can reach an accounted-arena
// allocation must therefore defer exec.CatchBudget — otherwise a
// tenant hitting its budget crashes the process instead of receiving a
// typed error.
//
// Reachability is approximated per package: a function is "risky" if
// it allocates from an arena directly, calls a kernel-package function
// that does not return an error (those let the panic through by
// design), or calls an in-package risky function that does not itself
// defer CatchBudget. Cross-package calls that return an error are
// assumed protected — that is the convention this analyzer enforces on
// the packages it covers.
var BudgetBoundary = &Analyzer{
	Name: "budgetboundary",
	Doc:  "exported error boundaries reaching accounted allocations defer exec.CatchBudget",
	Run:  runBudgetBoundary,
}

func runBudgetBoundary(pass *Pass) error {
	if !inSuffixList(pass.Pkg.Path(), budgetBoundaryPkgs) {
		return nil
	}

	type funcInfo struct {
		decl       *ast.FuncDecl
		catches    bool
		directRisk bool
		inPkgCalls []*types.Func
		risky      bool
	}
	infos := map[*types.Func]*funcInfo{}

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			fi := &funcInfo{decl: fd}
			fi.catches = defersCatchBudget(pass, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeFunc(pass.TypesInfo, call)
				if callee == nil {
					return true
				}
				switch {
				case isArenaMethod(callee, "Floats", "FloatsZero", "Ints", "Int64s", "Strings"):
					fi.directRisk = true
				case callee.Pkg() != nil && callee.Pkg() == pass.Pkg:
					fi.inPkgCalls = append(fi.inPkgCalls, callee)
				case callee.Pkg() != nil && inSuffixList(callee.Pkg().Path(), kernelPkgs):
					// Kernel calls that return an error install their
					// own CatchBudget (the PR 4 convention); calls
					// with no error result let the panic through.
					if !lastResultIsError(callee) && !isBudgetSafeKernelCall(callee) {
						fi.directRisk = true
					}
				}
				return true
			})
			infos[obj] = fi
		}
	}

	// Fixpoint: riskiness propagates through unprotected in-package
	// calls.
	for _, fi := range infos {
		fi.risky = fi.directRisk
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range infos {
			if fi.risky {
				continue
			}
			for _, callee := range fi.inPkgCalls {
				ci := infos[callee]
				if ci != nil && ci.risky && !ci.catches {
					fi.risky = true
					changed = true
					break
				}
			}
		}
	}

	for obj, fi := range infos {
		fd := fi.decl
		if !fd.Name.IsExported() || recvIsUnexported(fd) || inTestFile(pass, fd) {
			continue
		}
		if !lastResultIsError(obj) {
			continue
		}
		if fi.risky && !fi.catches {
			kind := "function"
			if fd.Recv != nil {
				kind = "method"
			}
			pass.Report(Diagnostic{
				Pos: fd.Name.Pos(),
				Message: fmt.Sprintf(
					"exported %s %s can reach an accounted-arena allocation but does not defer exec.CatchBudget",
					kind, fd.Name.Name),
			})
		}
	}
	return nil
}

// isBudgetSafeKernelCall exempts kernel functions that cannot unwind
// with a budget panic despite not returning an error: pure readers and
// the free/release family (uncharging never allocates).
func isBudgetSafeKernelCall(f *types.Func) bool {
	switch f.Name() {
	case "Free", "FreeInts", "FreeFloats", "FreeInt64s", "FreeStrings",
		"Release", "ReleaseFloats", "Close",
		"Len", "Type", "IsSparse", "Sparse", "Workers", "Stats", "Arena",
		"Serial", "Tenant", "Name", "String":
		return true
	}
	return false
}

// defersCatchBudget reports whether the body contains
// `defer exec.CatchBudget(...)`, directly or inside a deferred closure.
func defersCatchBudget(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		ds, ok := n.(*ast.DeferStmt)
		if !ok || found {
			return !found
		}
		if isCatchBudgetCall(pass, ds.Call) {
			found = true
			return false
		}
		if fl, ok := ast.Unparen(ds.Call.Fun).(*ast.FuncLit); ok {
			ast.Inspect(fl.Body, func(m ast.Node) bool {
				if c, ok := m.(*ast.CallExpr); ok && isCatchBudgetCall(pass, c) {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

func isCatchBudgetCall(pass *Pass, call *ast.CallExpr) bool {
	f := calleeFunc(pass.TypesInfo, call)
	return isPkgFunc(f, execPkgSuffix, "CatchBudget")
}
