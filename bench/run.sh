#!/usr/bin/env bash
# The benchmark's contract entry point (BENCHMARK.json "command"):
#
#   bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Builds the harness from source into bench/out/build/ (first call in a
# checkout: about half a minute; afterwards the build cache makes it a
# fraction of a second) and runs it. Everything the build and the run write
# stays inside the checkout, under bench/out/: the Go build cache is pointed
# there too. Must be started from the root of the checkout; anywhere else there is
# no go.mod to build from and it exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/bench" ]; then
    echo "bench/run.sh: start me from the root of the checkout (no go.mod or bench/ here)" >&2
    exit 2
fi
build="$root/bench/out/build"
export GOCACHE="$build/gocache"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOTELEMETRY=off
# The module needs nothing outside the standard library; a module cache is
# still named so that a missing $HOME cannot stop the go command.
export GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
mkdir -p "$build/bin"
go build -o "$build/bin/bench" ./bench
exec "$build/bin/bench" "$@"
