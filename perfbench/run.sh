#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments. Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload campaign --seed 1 --seconds 30 --trace 0
#
# Every build artifact (the Go build cache included) stays under
# .bench_build/ at the repository root.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "$0")" && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
