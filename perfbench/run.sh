#!/usr/bin/env bash
# Builds phased, experiments and the benchmark from the checkout's
# source, then runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload stream --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ in the
# checkout, so nothing outside it is read or written.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$out/bin"

go build -o "$out/bin/" ./cmd/phased ./cmd/experiments
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -out "$out" "$@"
