#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark from source
# into .bench_build/ at the checkout root — Go's build cache and temp
# files included, so nothing is written outside the checkout — and runs
# it from the root with the arguments given. An unchanged tree rebuilds
# in ~0.1 s.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C bench -o "$build/cormi-bench" .
exec "$build/cormi-bench" "$@"
