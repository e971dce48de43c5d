package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// uncalledAllowed lists the top-level functions and methods under internal/
// that TestEveryInternalFuncHasACaller accepts without a non-test caller,
// each with the reason it stays. Keys are "<package dir>.<Func>" or
// "<package dir>.<Recv>.<Method>". An entry whose name gains a caller is
// stale and fails the test: delete it.
var uncalledAllowed = map[string]string{
	"internal/exec.MemoryBudgetError.Unwrap": "called by errors.Is/errors.As through the Unwrap interface, never by name",
	"internal/core.ToSkinny":                 "kept for ROADMAP item 16, the K-relation view as a second RMA executor, which builds on it; skinny_test.go pins it",
	"internal/core.FromSkinny":               "kept for ROADMAP item 16, the K-relation view as a second RMA executor, which builds on it; skinny_test.go pins it",
	"internal/sql.DB.SetPlanCache":           "tests disable the plan cache through it; kept until ROADMAP item 4(d) decides the cache's fate",
	"internal/bat.Value.Less":                "shared test helper: the reference value order in the bat and sql tests",
	"internal/matrix.ApproxEqual":            "shared test helper: tolerance comparison in the matrix, linalg, batlin and core tests",
	"internal/analysis/atest.Run":            "the rmalint fixture runner: only analyzers_test.go calls it",
}

// module is the repository's module path, the prefix of every import of
// one of its packages.
const module = "repro"

// decl is one top-level function or method in a non-test internal/ file.
type decl struct {
	key    string // allowlist key
	name   string
	method bool
	dir    string // package directory, slash-separated, relative to the repo root
	file   string
	pos    token.Pos
	end    token.Pos
}

// ref is one identifier use in a non-test file.
type ref struct {
	dir  string
	file string
	pos  token.Pos
	// bare is set for an identifier that is not the selected name of a
	// selector expression.
	bare bool
	// qual is, for the selected name of pkg.Name, the package directory
	// of the import pkg names; "" otherwise.
	qual string
}

// parsed is one non-test Go file of the repository.
type parsed struct {
	path, dir string
	f         *ast.File
}

// TestEveryInternalFuncHasACaller fails on any top-level function or method
// in a non-test internal/ file that no non-test .go file calls outside its
// own declaration. A function without a receiver counts as called only
// through a bare identifier in its own package, or through a pkg.F
// selector whose pkg is an import of its package; a method counts as
// called wherever its name is mentioned (exported methods anywhere in the
// repository, benchmark/ included and testdata/ excluded; unexported ones
// inside their own package). The method rule is name-based, so it
// over-approximates "called": a same-named method or selector elsewhere
// hides a dead method (an uncalled Close, say). The test never flags live
// code, except a function called only through a dot import, which the
// repository does not use.
func TestEveryInternalFuncHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	var files []parsed
	pkgName := map[string]string{} // package directory -> package name
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		pkgName[dir] = f.Name.Name
		files = append(files, parsed{path, dir, f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var decls []decl
	refs := map[string][]ref{}
	for _, pf := range files {
		// imports maps the file's local name of each repository package
		// to that package's directory.
		imports := map[string]string{}
		for _, im := range pf.f.Imports {
			dir, ok := strings.CutPrefix(strings.Trim(im.Path.Value, `"`), module+"/")
			if !ok {
				continue
			}
			local := pkgName[dir]
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = dir
		}
		declNames := map[*ast.Ident]bool{}
		for _, fd := range pf.f.Decls {
			fn, ok := fd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declNames[fn.Name] = true
			if !strings.HasPrefix(pf.dir, "internal/") || fn.Name.Name == "init" {
				continue
			}
			key := pf.dir + "." + fn.Name.Name
			if fn.Recv != nil {
				key = pf.dir + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			decls = append(decls, decl{key: key, name: fn.Name.Name, method: fn.Recv != nil,
				dir: pf.dir, file: pf.path, pos: fn.Pos(), end: fn.End()})
		}
		selected := map[*ast.Ident]string{} // selected name -> qualifier's package directory
		ast.Inspect(pf.f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				selected[x.Sel] = ""
				if id, ok := x.X.(*ast.Ident); ok {
					selected[x.Sel] = imports[id.Name]
				}
			case *ast.Ident:
				if !declNames[x] {
					qual, sel := selected[x]
					refs[x.Name] = append(refs[x.Name], ref{dir: pf.dir, file: pf.path, pos: x.Pos(), bare: !sel, qual: qual})
				}
			}
			return true
		})
	}

	called := func(d decl) bool {
		for _, r := range refs[d.name] {
			if r.file == d.file && r.pos >= d.pos && r.pos < d.end {
				continue // the declaration's own body
			}
			switch {
			case d.method:
				if ast.IsExported(d.name) || r.dir == d.dir {
					return true
				}
			case r.qual == d.dir, r.bare && r.dir == d.dir:
				return true
			}
		}
		return false
	}
	seen := map[string]bool{}
	var uncalled, stale []string
	for _, d := range decls {
		seen[d.key] = true
		_, allowed := uncalledAllowed[d.key]
		switch c := called(d); {
		case !c && !allowed:
			uncalled = append(uncalled, d.key+" ("+fset.Position(d.pos).String()+")")
		case c && allowed:
			stale = append(stale, d.key+" now has a caller")
		}
	}
	for key, reason := range uncalledAllowed {
		if !seen[key] {
			stale = append(stale, key+" no longer exists")
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allowlist entry %s gives no reason", key)
		}
	}
	sort.Strings(uncalled)
	sort.Strings(stale)
	for _, u := range uncalled {
		t.Errorf("no non-test caller: %s; delete it, or allowlist it with a reason", u)
	}
	for _, s := range stale {
		t.Errorf("stale allowlist entry: %s; remove it from uncalledAllowed", s)
	}
}

// recvName is the receiver's base type name, without pointer or type
// parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
