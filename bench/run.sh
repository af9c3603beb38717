#!/usr/bin/env bash
# Entry point for BENCHMARK.json: build the benchmark from this checkout's
# source and run it with the arguments given. Everything the build leaves
# behind (binary, Go build cache) stays under .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOFLAGS=
go build -o "$build/sfq-bench" ./bench
exec "$build/sfq-bench" "$@"
