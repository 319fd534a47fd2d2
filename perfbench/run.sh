#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload leaf-sketch --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build artefact (binary, Go build
# cache, Go's own config files) stays under .bench_build/ in the checkout.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
