#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs one
# workload. Run it from the repository root:
#
#   bash bench/run.sh -workload paper-sim -seed 1 -seconds 15 -trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, campaign manifests and
# the Chrome trace of a traced run. The build never touches the network.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$PWD/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOPROXY=off GOSUMDB=off \
	GOTOOLCHAIN=local GOWORK=off

go -C "$root/bench" build -o "$out/bench" .
exec "$out/bench" "$@"
