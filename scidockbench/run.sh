#!/usr/bin/env bash
# Builds scidockbench from the sources of the checkout it sits in and
# runs it with the given arguments. Run from the root of the checkout:
#
#   bash scidockbench/run.sh --workload vina-screen --seed 1 --seconds 20 --trace 0
#
# Build output and the Go build cache stay under .bench_build/ in the
# checkout; nothing is fetched from the network.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0
(cd "$root/scidockbench" && go build -o "$out/scidockbench" .)
exec "$out/scidockbench" "$@"
