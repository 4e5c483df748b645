#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload fig7 --seed 2021 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the benchmark's own files stay
# under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
