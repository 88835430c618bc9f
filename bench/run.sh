#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash bench/run.sh                          # every workload, seed 7
#   bash bench/run.sh --workload coverage --seed 3 --seconds 20 --trace 0
#   bash bench/run.sh compare parent.json change.json
#
# The Go build cache, module cache and binary live under .bench_build in the
# repository root, so nothing outside the checkout is read or written.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C bench build -o "$build/relaxfault-bench" .
exec "$build/relaxfault-bench" "$@"
