#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every byte the
# toolchain and the harness write (build cache, binary, stores, result
# files) under .bench_build/ in the checkout this script sits in.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
go build -C "$root/bench" -o "$out/shiftsplit-bench" .
cd "$root"
exec "$out/shiftsplit-bench" "$@"
