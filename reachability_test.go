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
	"internal/bat.Value.Equal":               "shared test helper: cell equality in the bat, csvio and core tests",
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
	// pkg is set for the selected name of pkg.Name, a qualified
	// identifier whose pkg names an import of the file.
	pkg bool
	// qual is, for the selected name of pkg.Name, the package directory
	// of the import pkg names when that is a repository package; ""
	// otherwise.
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
// called wherever its name is selected, x.Name, other than as a
// package's member pkg.Name (exported methods anywhere in the
// repository, benchmark/ included and testdata/ excluded; unexported ones
// inside their own package). So a type parameter, local or field key
// named like a method does not keep it alive, nor does testing.T. The
// method rule is name-based, so it over-approximates "called": a
// same-named method or field selected elsewhere hides a dead method (an
// uncalled Close, say). The test never flags live code, except a
// function called only through a dot import, which the repository does
// not use, a method called only through a local that shadows an import's
// name, and a method that only an interface declared outside its package
// calls (errors' Unwrap, fmt's String): such a method goes on the
// allowlist. A method named in an interface its own package declares
// counts as used.
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
	// ifaceMethods holds, per package directory, the method names of the
	// interfaces it declares: a method that makes its type satisfy one
	// (a sealed interface's marker, say) is used without being called.
	ifaceMethods := map[string]map[string]bool{}
	for _, pf := range files {
		// imports maps the file's local name of each import to the
		// package's directory for a repository package, "" otherwise.
		imports := map[string]string{}
		for _, im := range pf.f.Imports {
			path := strings.Trim(im.Path.Value, `"`)
			dir, ok := strings.CutPrefix(path, module+"/")
			local := path[strings.LastIndex(path, "/")+1:]
			if ok {
				local = pkgName[dir]
			} else {
				dir = ""
			}
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
		selected := map[*ast.Ident]ref{} // selected name -> its qualifier
		ast.Inspect(pf.f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.InterfaceType:
				for _, f := range x.Methods.List {
					for _, name := range f.Names {
						if ifaceMethods[pf.dir] == nil {
							ifaceMethods[pf.dir] = map[string]bool{}
						}
						ifaceMethods[pf.dir][name.Name] = true
						declNames[name] = true
					}
				}
			case *ast.SelectorExpr:
				var r ref
				if id, ok := x.X.(*ast.Ident); ok {
					r.qual, r.pkg = imports[id.Name]
				}
				selected[x.Sel] = r
			case *ast.Ident:
				if !declNames[x] {
					r, sel := selected[x]
					r.dir, r.file, r.pos, r.bare = pf.dir, pf.path, x.Pos(), !sel
					refs[x.Name] = append(refs[x.Name], r)
				}
			}
			return true
		})
	}

	called := func(d decl) bool {
		if d.method && ifaceMethods[d.dir][d.name] {
			return true
		}
		for _, r := range refs[d.name] {
			if r.file == d.file && r.pos >= d.pos && r.pos < d.end {
				continue // the declaration's own body
			}
			switch {
			case d.method:
				if !r.bare && !r.pkg && (ast.IsExported(d.name) || r.dir == d.dir) {
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
