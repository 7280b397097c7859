#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout (build cache,
# scratch space and binary all under .bench_build/) and runs it from
# the repo root; every argument is passed through.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
# The module has no dependency outside this repository, so the build
# needs no network, no module cache and nothing from $HOME.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$build/rnabench" .
exec "$build/rnabench" "$@"
