package analysis

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"go/version"
	"io"
	"os"
	"strings"
)

// This file implements the `go vet -vettool` protocol from scratch:
// the go command invokes the tool once per package with a JSON config
// file listing the package's sources and the export-data files of its
// dependencies. x/tools calls this driver the "unitchecker"; since the
// repository carries no dependencies, rmalint speaks the protocol
// directly on top of go/parser, go/types, and the gc export-data
// importer in the standard library.
//
// Protocol, as exercised by cmd/go:
//
//	rmalint -V=full         print a version line the build cache can key on
//	rmalint -flags          print the tool's flags as JSON
//	rmalint [-json] x.cfg   analyze one package described by x.cfg
//
// A .cfg run exits 0 with no findings, 2 with findings (plain mode),
// and always 0 in -json mode, matching x/tools' unitchecker.

// vetConfig mirrors the JSON config cmd/go writes for each package.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	GoVersion                 string
	SucceedOnTypecheckFailure bool
}

// Main is the entry point for cmd/rmalint: it answers cmd/go's vet
// protocol and returns the process exit code. Run it through
// `go vet -vettool`, which hands it one package's .cfg file at a time.
func Main(args []string) int {
	jsonOut := false
	var rest []string
	for _, a := range args {
		switch {
		case a == "-V=full" || a == "-V":
			printVersion()
			return 0
		case a == "-flags":
			printFlags()
			return 0
		case a == "-json" || a == "-json=true":
			jsonOut = true
		case a == "-json=false":
			jsonOut = false
		case strings.HasPrefix(a, "-"):
			// Analyzer enable flags (-arenapair etc.) are accepted
			// for vet compatibility; the suite always runs whole.
		default:
			rest = append(rest, a)
		}
	}
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return runVetConfig(rest[0], jsonOut)
	}
	fmt.Fprintln(os.Stderr, "usage: go vet -vettool=$(which rmalint) [-json] ./...")
	return 1
}

// printVersion emits the line cmd/go's buildID machinery parses: the
// executable path, the literal words "version devel", and a content
// hash of the binary so the vet cache invalidates when rmalint changes.
func printVersion() {
	exe, err := os.Executable()
	if err != nil {
		exe = "rmalint"
	}
	h := sha256.New()
	if f, err := os.Open(exe); err == nil {
		io.Copy(h, f)
		f.Close()
	}
	fmt.Printf("%s version devel buildID=%x\n", exe, h.Sum(nil)[:16])
}

// printFlags describes the tool's flags to cmd/go so it knows which
// vet flags to forward.
func printFlags() {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	flags := []jsonFlag{
		{"V", true, "print version and exit"},
		{"json", true, "emit JSON output"},
	}
	for _, a := range Suite() {
		flags = append(flags, jsonFlag{a.Name, true, "enable " + a.Name + " analysis"})
	}
	data, _ := json.Marshal(flags)
	fmt.Println(string(data))
}

// runVetConfig analyzes the single package described by a cmd/go vet
// config file.
func runVetConfig(cfgFile string, jsonOut bool) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rmalint: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "rmalint: parsing %s: %v\n", cfgFile, err)
		return 1
	}
	// rmalint exports no facts, but cmd/go expects the output file to
	// exist for caching.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "rmalint: %v\n", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	files, err := parseFiles(fset, cfg.GoFiles)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "rmalint: %v\n", err)
		return 1
	}
	pkg, info, err := typeCheck(fset, files, &cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "rmalint: typecheck %s: %v\n", cfg.ImportPath, err)
		return 1
	}

	diags, supp, err := RunPackage(fset, files, pkg, info, Suite())
	if err != nil {
		fmt.Fprintf(os.Stderr, "rmalint: %v\n", err)
		return 1
	}
	if jsonOut {
		emitJSON(os.Stdout, fset, map[string]pkgResult{cfg.ImportPath: {diags, supp}})
		return 0
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s [rmalint/%s]\n", fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

func parseFiles(fset *token.FileSet, paths []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, p := range paths {
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// typeCheck type-checks the package using gc export data for imports:
// the config's ImportMap translates source-level import paths to
// canonical ones, PackageFile locates each canonical path's export
// file, and the standard library's gc importer reads them.
func typeCheck(fset *token.FileSet, files []*ast.File, cfg *vetConfig) (*types.Package, *types.Info, error) {
	lookup := func(path string) (io.ReadCloser, error) {
		if canon, ok := cfg.ImportMap[path]; ok {
			path = canon
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	tc := types.Config{
		Importer:  importer.ForCompiler(fset, cfg.Compiler, lookup),
		GoVersion: version.Lang(cfg.GoVersion),
		Sizes:     types.SizesFor(cfg.Compiler, "amd64"),
		Error:     func(error) {}, // collect via returned error
	}
	info := NewInfo()
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	return pkg, info, err
}

// pkgResult pairs one package's live and suppressed findings.
type pkgResult struct {
	Diags []Diagnostic
	Supp  []Suppression
}

// jsonDiag is the serialized form of one finding.
type jsonDiag struct {
	Analyzer string `json:"analyzer"`
	Posn     string `json:"posn"`
	Message  string `json:"message,omitempty"`
	Reason   string `json:"reason,omitempty"`
}

// jsonOutput is the machine-readable report of a run. Suppressions are
// first-class so trajectory tooling can count them over time.
type jsonOutput struct {
	Packages map[string]jsonPkg `json:"packages"`
	Counts   struct {
		Diagnostics  int `json:"diagnostics"`
		Suppressions int `json:"suppressions"`
	} `json:"counts"`
}

type jsonPkg struct {
	Diagnostics  []jsonDiag `json:"diagnostics,omitempty"`
	Suppressions []jsonDiag `json:"suppressions,omitempty"`
}

func emitJSON(w io.Writer, fset *token.FileSet, results map[string]pkgResult) {
	out := jsonOutput{Packages: map[string]jsonPkg{}}
	for path, r := range results {
		var jp jsonPkg
		for _, d := range r.Diags {
			jp.Diagnostics = append(jp.Diagnostics, jsonDiag{
				Analyzer: d.Analyzer,
				Posn:     fset.Position(d.Pos).String(),
				Message:  d.Message,
			})
		}
		for _, s := range r.Supp {
			jp.Suppressions = append(jp.Suppressions, jsonDiag{
				Analyzer: s.Analyzer,
				Posn:     fset.Position(s.Pos).String(),
				Reason:   s.Reason,
			})
		}
		out.Counts.Diagnostics += len(jp.Diagnostics)
		out.Counts.Suppressions += len(jp.Suppressions)
		out.Packages[path] = jp
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	enc.Encode(out)
}
