#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# inside the checkout and runs it with the driver's arguments. All build
# state (Go's build cache included) stays under .bench_build, so a run
# reads and writes nothing outside the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
go build -o "$build/qbism-benchmark" ./benchmark
exec "$build/qbism-benchmark" "$@"
