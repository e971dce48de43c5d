// Command rmalint is the engine's invariant checker: a multichecker
// over the four analyzers in internal/analysis (arenapair, ctxfirst,
// budgetboundary, detorder).
//
// It runs through cmd/go's vet protocol, over the test files too:
//
//	go vet -vettool=$(which rmalint) ./...         # findings on stderr
//	go vet -vettool=$(which rmalint) -json ./...   # machine-readable report
//
// The JSON report lists live findings and //lint:ignore suppressions
// (with their reasons) per package, so tooling can track both over
// time. Without -json, go vet fails when rmalint finds anything.
package main

import (
	"os"

	"repro/internal/analysis"
)

func main() {
	os.Exit(analysis.Main(os.Args[1:]))
}
