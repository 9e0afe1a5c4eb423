#!/usr/bin/env bash
# Build file of the repository benchmark: compiles ./benchmark from the
# checkout's own sources and runs it with the arguments given. Everything the
# build writes (binary, Go build cache) stays inside the checkout, under
# .bench_build (or $CARGO_TARGET_DIR when the caller names another place).
#
#   bash benchmark/run.sh --workload mesh8_dense --seed 17 --seconds 12 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$PWD/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTOOLCHAIN=local
go build -o "$out/mlnoc-benchmark" ./benchmark
exec "$out/mlnoc-benchmark" "$@"
