#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark driver from
# source inside the checkout (build cache and temp files stay under
# .bench_build/) and runs it with the arguments given.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -C bench -o "$build/mdbench" .
# The driver and the servers it spawns run pinned to one CPU, the last one
# this process may use. The load is one closed-loop connection, so driver
# and server take turns; on two CPUs of a shared host every turn would wake
# a halted CPU, which costs what the host's other tenants make it cost.
if command -v taskset >/dev/null; then
  cpus=$(taskset -cp $$)
  exec taskset -c "${cpus##*[ ,-]}" "$build/mdbench" "$@"
fi
exec "$build/mdbench" "$@"
