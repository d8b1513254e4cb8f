#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload web-uniform --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write goes
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOENV=off
export GOTOOLCHAIN=local GOFLAGS="-mod=readonly -buildvcs=false"

# The commit for the record header; outside a git checkout it is "unknown".
commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" GIT_CONFIG_NOSYSTEM=1 GIT_CONFIG_GLOBAL=/dev/null \
	git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)

(cd "$root/perfbench" && go build -o "$out/rtkperf" .) >&2
exec "$out/rtkperf" -commit "$commit" -workdir "$out" -catalog "$root/BENCHMARK.json" "$@"
