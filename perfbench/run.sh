#!/usr/bin/env bash
# Builds critlock's benchmark from the checkout it runs in, then runs it:
#
#   bash perfbench/run.sh --workload stream-mix-2m --seed 1 --seconds 10 --trace 0
#
# Run it from the root of a critlock checkout. The binary, the Go build
# cache and every file a run writes stay under .bench_build/ there.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
go -C perfbench build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" "$@"
