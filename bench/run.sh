#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# arguments (see README.md). Everything the build and the run write stays
# inside the checkout: the Go build cache, the binary and scratch files
# live under .bench_build/, results under bench/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
bin="$build/rabench"

mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

# Rebuild when the binary is missing or any Go source of the repo is newer.
if [ ! -x "$bin" ] || [ -n "$(find "$root" -path "$build" -prune -o \( -name '*.go' -o -name go.mod -o -name golden.json \) -newer "$bin" -print -quit)" ]; then
	go -C "$here" build -o "$bin" .
fi

cd "$root"
exec "$bin" "$@"
