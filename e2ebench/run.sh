#!/usr/bin/env bash
# Builds the end-to-end benchmark and runs it from the repository root.
# Every build product, Go cache and run artifact stays under .bench_build
# in the current directory.
#
#   bash e2ebench/run.sh --workload kv-hot-open --seed 1 --seconds 25 --trace 0
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOTOOLCHAIN=local
go -C "$root/e2ebench" build -o "$out/e2ebench" .
exec "$out/e2ebench" "$@"
