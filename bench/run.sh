#!/usr/bin/env bash
# Builds the benchmark and the cbsimd daemon from source, then runs the
# benchmark with the given arguments. Run it from the root of the
# repository, for example:
#
#   bash bench/run.sh --workload repro-64 --seed 0 --seconds 30 --trace 0
#
# Binaries, the Go build cache, result records and traces all live under
# .bench_build/, so a run reads and writes nothing outside the checkout.
# The benchmark is its own module (bench/go.mod) that imports the
# simulator through `replace repro => ../`; without the simulator's
# sources next to it the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false

(cd "$root/bench" && go build -o "$out/bench" .) >&2
go build -o "$out/cbsimd" ./cmd/cbsimd >&2

exec "$out/bench" "$@"
