#!/usr/bin/env bash
# Builds the layered benchmark from the source tree it sits in and runs it.
# Run from the repository root, e.g.:
#
#   bash layerbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
#
# Every build product, Go cache and output file goes under .bench_build/ in
# the current directory, so the run reads and writes nothing outside it.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"

if ! command -v go >/dev/null 2>&1; then
	PATH="$PATH:/usr/local/go/bin" # the Go distribution's default install location
fi

mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$here" && go build -o "$build/layerbench" .)
exec "$build/layerbench" --out "$build/out" "$@"
