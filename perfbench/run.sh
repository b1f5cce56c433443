#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark, e.g.
#
#   bash perfbench/run.sh -workload vet -seed 1 -seconds 10 -trace 0
#
# Everything the toolchain writes (build cache, temporary files, module
# path, its config directory with the telemetry counters) and the binary
# stay under .bench_build/ in the current directory, and the toolchain is
# never allowed to reach the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOENV=off GOPROXY=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
