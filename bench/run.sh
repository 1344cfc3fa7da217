#!/usr/bin/env bash
# Builds the CREST benchmark from the checkout it sits in and runs it
# with the given arguments. Run it from the repository root, e.g.
#
#   bash bench/run.sh --workload serve-json-f64-512 --seed 1 --seconds 15 --trace 0
#
# Every file the build and the run write stays under .bench_build/ and
# bench/out/ in that checkout: the Go build cache, temporary build
# directories, the Go configuration directory and the benchmark binary.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local \
	GOFLAGS=-mod=readonly GOWORK=off

go -C "$root/bench" build -o "$out/crestbench" .
exec "$out/crestbench" "$@"
