#!/usr/bin/env bash
# Entry point of the repo's benchmark (BENCHMARK.json "command").
# Builds the harness from source and runs it with the given arguments.
# Every build artifact, the Go build cache included, stays under
# .bench_build/ in the checkout, so a run reads and writes nothing
# outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
t0=$(date +%s%N)
(cd "$here" && go build -o "$build/twe-benchmark" .)
export TWE_BENCH_HARNESS_BUILD_NS=$(($(date +%s%N) - t0))
cd "$root"
exec "$build/twe-benchmark" -root "$root" -build-dir "$build" "$@"
