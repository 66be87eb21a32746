#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds and runs the benchmark driver
# with everything the Go tool writes — build cache, temporary files (the
# tool uses TMPDIR beside GOTMPDIR), module path, telemetry mode — kept
# under bench/out/.build, so a run reads and writes nothing outside the
# benchmark's own directory.
# (The leading dot keeps the Go tool's ./... from descending into it.)
#
#   bash bench/run.sh --workload point_single --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/bench/out/.build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local
# With telemetry on or local, the first go command under a fresh
# configuration directory detaches a child of its own that outlives it (and
# this script, when the build fails at once). Mode off starts no such child.
echo off >"$build/config/go/telemetry/mode"
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
