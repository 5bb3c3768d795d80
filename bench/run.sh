#!/usr/bin/env bash
# Builds spinbench from the sources of the checkout it is run from, then
# runs it with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload serve-steady --seed 1 --seconds 22 --trace 0
#
# The build cache, the Go configuration directory and the binary all live
# under .bench_build/ in the checkout, so nothing is written outside it.
# The toolchain must be installed already: the build never downloads.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/bench" && go build -o "$build/spinbench" ./spinbench)
exec "$build/spinbench" "$@"
