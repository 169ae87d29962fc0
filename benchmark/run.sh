#!/usr/bin/env bash
# Entry point BENCHMARK.json names: builds the benchmark (and with it the
# program) from the checkout's source into .bench_build, then runs it with
# the driver's arguments. Everything Go writes — build cache, module
# cache, telemetry, temp files — is kept inside the checkout.
set -euo pipefail
root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/BENCHMARK.json" ]; then
	echo "benchmark/run.sh: run from the root of a checkout (go.mod and BENCHMARK.json not found in $root)" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/trex-benchmark" ./benchmark
exec "$build/trex-benchmark" "$@"
