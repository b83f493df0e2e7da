#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# checkout. Everything the build leaves behind, the Go build cache too,
# goes under .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gomodcache"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
(cd benchmark && go build -o "$build/quack-benchmark" .)
exec "$build/quack-benchmark" "$@"
