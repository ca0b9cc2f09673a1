#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload solo --seed 1001 --seconds 15 --trace 0
#
# Everything the Go toolchain and the benchmark write stays under
# .bench_build/ in the current directory: the build cache, temporary
# files, the binary, traced runs' spans and the service workload's job
# state. The build needs no network: the benchmark module depends only on
# the repository's own module.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
