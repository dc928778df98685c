#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources into .bench_build/ and
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload sim-link --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every file the build and the runs write
# stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps telemetry counters under the user's config directory.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
