#!/usr/bin/env bash
# Builds the benchmark (a Go module of its own, next to this script) and
# runs it with the given arguments. Everything the build and the run write
# stays under .bench_build/ in the checkout: the Go build cache, the
# binaries, the scratch data and trace.json.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/benchmark" .)
BENCHMARK_ROOT="$root" exec "$out/benchmark" "$@"
