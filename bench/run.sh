#!/usr/bin/env bash
# Entry point for a driver: builds the harness from source and runs it,
# keeping everything the toolchain writes (build cache, temporary files,
# binaries) in .bench_build/ at the root of the checkout.
#
#   bash bench/run.sh --workload archive-read --seed 3 --seconds 12 --trace 0
#
# With no arguments it runs all six workloads; see README.md here.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
cd "$root"
go build -C bench -o "$build/bin/bench" .
exec "$build/bin/bench" "$@"
