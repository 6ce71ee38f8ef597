#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it
# from the repository root, passing every argument through:
#
#   bash benchmark/run.sh --workload static --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh -compare OLD NEW
#
# The build cache, the compiler's temporary files, the binary and everything
# a run writes stay under .bench_build/ at the repository root.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/gotmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd "$root/benchmark" && go build -o "$out/e2e" .)
cd "$root"
exec "$out/e2e" "$@"
