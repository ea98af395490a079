#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. Run from the
# repository root; arguments pass through to the benchmark binary:
#
#   bash perfbench/run.sh --workload wcet-dense --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build) in the checkout: the Go build cache, the binary,
# and the span and result files.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C perfbench build -o "$build/perfbench-bin" . >&2
exec "$build/perfbench-bin" -out "$build/perfbench" "$@"
