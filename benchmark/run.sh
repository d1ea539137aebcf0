#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# given flags, e.g.
#
#   bash benchmark/run.sh --workload reproduce --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build and run artifact (the Go build
# cache, temp files, the binary and the run stores) stays under
# $CARGO_TARGET_DIR, default .bench_build, so nothing is written outside the
# checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp" "$build/work"

export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off
export GOCACHE=$build/gocache GOPATH=$build/gopath
export GOTMPDIR=$build/tmp TMPDIR=$build/tmp

(cd "$root/benchmark" && go build -o "$build/parbw-bench" .)
exec "$build/parbw-bench" --workdir "$build/work" "$@"
