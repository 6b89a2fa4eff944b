#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the caller's flags:
#
#   bash benchmark/run.sh --workload sls_local --seed 1 --seconds 24 --trace 0
#   bash benchmark/run.sh --seed 1              # all four workloads, then the traced runs
#   bash benchmark/run.sh --seed 1 --sets 2     # self-agreement against the bounds
#
# Everything the build and the run write — Go's build cache, its temporary
# files, the binary, the trace files — stays under .bench_build/ at the
# checkout root. The benchmark is a module of its own (go.mod beside this
# file) that replaces "secndp" with the checkout, so outside a checkout the
# build fails and this script exits non-zero without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/secndp-benchmark" .
cd "$root"
exec "$build/secndp-benchmark" "$@"
