#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload sweep-static --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Every build artefact (Go build cache,
# temporary files, the binary) stays under .bench_build in that root, and
# the benchmark's scratch files (the fleet journal) go there too. The last
# line of standard output is the JSON result; build output goes to
# standard error.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOWORK=off

go -C "$root/perfbench" build -o "$out/perfbench" . >&2

GOMAXPROCS=$(nproc) exec "$out/perfbench" "$@"
