#!/usr/bin/env bash
# Builds the benchmark from the source tree it is run in and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload quality-1k --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the build and the runs
# leave behind (Go build cache, binary, result records, spans) stays in
# .bench_build under that root.
set -euo pipefail

root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/gocache" "${out}/gopath" "${out}/tmp" "${out}/config"
export GOCACHE="${out}/gocache" GOPATH="${out}/gopath" GOTMPDIR="${out}/tmp" XDG_CONFIG_HOME="${out}/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly

go build -o "${out}/bin/perfbench" ./perfbench
exec "${out}/bin/perfbench" --out "${out}/results" "$@"
