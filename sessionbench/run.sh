#!/usr/bin/env bash
# Builds the session benchmark from the checkout's sources and runs it with
# the arguments given, e.g.
#   bash sessionbench/run.sh --workload hot-loop --seed 1 --seconds 15 --trace 0
# Run from the root of the repository. The build cache, the binary and each
# run's scratch data live under .bench_build/ in the checkout.
set -euo pipefail
here="$(pwd)"
out="$here/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local
go build -o "$out/bin/sessionbench" ./sessionbench >&2
exec "$out/bin/sessionbench" "$@"
