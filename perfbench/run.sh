#!/usr/bin/env bash
# Builds the benchmark driver from the checkout it lives in and runs it
# with the given arguments. Everything the build and the run leave behind
# (Go build cache, temp archives, result and span files) stays under
# .bench_build/ at the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C "$here" -o "$build/perfbench" .
cd "$root"
exec "$build/perfbench" --outdir "$build/results" "$@"
