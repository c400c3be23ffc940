#!/usr/bin/env bash
# Builds the benchmark from the checkout that contains this script and runs
# it with the given arguments, from the checkout root. The binary, the Go
# build cache and temporary files stay in .bench_build/ at the checkout
# root, and GOPROXY=off keeps the build from reaching the network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$root/benchmark" build -o "$out/benchmark" .
cd "$root"
exec "$out/benchmark" "$@"
