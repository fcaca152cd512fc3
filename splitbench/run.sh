#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash splitbench/run.sh --workload fresh-sparse --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary build files, the toolchain's
# user config (telemetry counters) and the binary.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off CGO_ENABLED=0
go build -buildvcs=false -o "$out/splitbench" ./splitbench
exec "$out/splitbench" "$@"
