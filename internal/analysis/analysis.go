// Package analysis is rmalint: a suite of static analyzers that
// machine-check the engine's cross-cutting invariants — arena buffers
// are freed or escape on every control-flow path (arenapair), kernels
// that allocate or fan out take a *exec.Ctx first (ctxfirst), exported
// error boundaries over accounted arenas defer exec.CatchBudget
// (budgetboundary), and nothing feeds nondeterministic map order or
// wall-clock/random values into result-affecting code (detorder).
//
// The types mirror golang.org/x/tools/go/analysis deliberately, but the
// implementation is standard-library only: the repository carries no
// module dependencies, so the suite includes its own vet -vettool
// driver (unitchecker.go) and a fixture harness (atest). Should the
// tree ever vendor x/tools, each Analyzer.Run ports over mechanically.
//
// # Suppressions
//
// A finding is silenced by a comment on the offending line or the line
// directly above it:
//
//	//lint:ignore rmalint/<analyzer> <reason>
//
// The reason is mandatory and is surfaced in the -json output of
// `go vet -vettool=rmalint -json` so tooling can count (and trend)
// suppressions over time.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check. The shape follows
// golang.org/x/tools/go/analysis.Analyzer so the checks port
// mechanically if the tree ever vendors x/tools.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore rmalint/<Name> suppression comments.
	Name string
	// Doc is a one-paragraph description of the invariant.
	Doc string
	// Run reports findings on one package through pass.Report.
	Run func(pass *Pass) error
}

// A Pass provides one analyzer with one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report records one finding. The driver applies suppression
	// comments after the analyzer runs.
	Report func(Diagnostic)
}

// A Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}

// A Suppression records a diagnostic that a //lint:ignore comment
// silenced, with the comment's stated reason.
type Suppression struct {
	Analyzer string
	Pos      token.Pos
	Reason   string
}

// ignoreRe matches the suppression comment. The analyzer name and a
// non-empty reason are both required; a bare "//lint:ignore rmalint/x"
// suppresses nothing.
var ignoreRe = regexp.MustCompile(`^//\s*lint:ignore\s+rmalint/([a-z]+)\s+(\S.*)$`)

// ignoreSite is one //lint:ignore comment: the analyzer it silences,
// the file line it governs (its own line — suppressing same-line or
// next-line findings), and the stated reason.
type ignoreSite struct {
	analyzer string
	file     string
	line     int
	reason   string
}

// collectIgnores scans every comment in the files for suppression
// directives.
func collectIgnores(fset *token.FileSet, files []*ast.File) []ignoreSite {
	var sites []ignoreSite
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				sites = append(sites, ignoreSite{
					analyzer: m[1],
					file:     pos.Filename,
					line:     pos.Line,
					reason:   strings.TrimSpace(m[2]),
				})
			}
		}
	}
	return sites
}

// RunPackage runs every analyzer over one type-checked package and
// splits the findings into live diagnostics and suppressed ones.
// Diagnostics are returned in deterministic position order.
func RunPackage(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) (diags []Diagnostic, supp []Suppression, err error) {
	ignores := collectIgnores(fset, files)
	for _, a := range analyzers {
		var raw []Diagnostic
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report: func(d Diagnostic) {
				d.Analyzer = a.Name
				raw = append(raw, d)
			},
		}
		if rerr := a.Run(pass); rerr != nil {
			return nil, nil, fmt.Errorf("analyzer %s: %w", a.Name, rerr)
		}
		for _, d := range raw {
			if s, ok := suppressedBy(fset, d, ignores); ok {
				supp = append(supp, s)
				continue
			}
			diags = append(diags, d)
		}
	}
	sortDiags(fset, diags)
	sort.Slice(supp, func(i, j int) bool { return supp[i].Pos < supp[j].Pos })
	return diags, supp, nil
}

// suppressedBy reports whether an ignore comment on the diagnostic's
// line (or the line directly above it) silences the diagnostic.
func suppressedBy(fset *token.FileSet, d Diagnostic, ignores []ignoreSite) (Suppression, bool) {
	if len(ignores) == 0 {
		return Suppression{}, false
	}
	pos := fset.Position(d.Pos)
	for _, ig := range ignores {
		if ig.analyzer != d.Analyzer || ig.file != pos.Filename {
			continue
		}
		if ig.line == pos.Line || ig.line == pos.Line-1 {
			return Suppression{Analyzer: d.Analyzer, Pos: d.Pos, Reason: ig.reason}, true
		}
	}
	return Suppression{}, false
}

func sortDiags(fset *token.FileSet, diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}

// NewInfo returns a types.Info with every map populated, ready for
// types.Config.Check.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}

// Suite returns the rmalint analyzers in stable order.
func Suite() []*Analyzer {
	return []*Analyzer{ArenaPair, CtxFirst, BudgetBoundary, DetOrder}
}

// pathHasSuffix reports whether an import path ends with the given
// slash-separated suffix on a path-segment boundary, so
// "internal/bat" matches "repro/internal/bat" but not
// "repro/internal/xbat".
func pathHasSuffix(path, suffix string) bool {
	if path == suffix {
		return true
	}
	return strings.HasSuffix(path, "/"+suffix)
}

// pathHasSegment reports whether one slash-separated segment of the
// import path equals seg.
func pathHasSegment(path, seg string) bool {
	for _, s := range strings.Split(path, "/") {
		if s == seg {
			return true
		}
	}
	return false
}
