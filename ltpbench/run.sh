#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments. Run from the repository root:
#
#   bash ltpbench/run.sh --workload cycle-mlp --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the run's scratch files all stay
# under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/gotmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOTELEMETRY=off
(cd "$root/ltpbench" && go build -o "$out/ltpbench" .)
exec "$out/ltpbench" "$@"
