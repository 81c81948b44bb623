#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it; BENCHMARK.json's
# command. Everything the Go toolchain writes stays under .bench_build, and
# everything the benchmark writes under .bench_out, both at the checkout's
# root. Arguments go to the benchmark unchanged, e.g.
#   bash benchmark/run.sh --workload wire_exec --seed 1 --seconds 30 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
# go build leaves an up-to-date binary alone, so only the first run in a
# checkout (or the first after a source change) pays for compiling.
(cd "$root/benchmark" && go build -o "$build/joinopt-benchmark" .)
cd "$root"
exec "$build/joinopt-benchmark" "$@"
