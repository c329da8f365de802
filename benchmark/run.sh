#!/usr/bin/env bash
# Entry point of BENCHMARK.json, run from the root of a checkout:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds the harness and (from the harness) cmd/imprecise out of the
# sources in the checkout, with every Go cache kept under .bench_build so
# that nothing outside the checkout is read or written, then runs the
# harness. The first run in a checkout compiles the standard library too.
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config # build scratch and the toolchain's own counters
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C "$root/benchmark" -o "$build/harness" .
exec "$build/harness" -repo "$root" "$@"
