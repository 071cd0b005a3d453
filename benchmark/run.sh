#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, e.g.
#
#   bash benchmark/run.sh --workload live-cottage-wiki --seed 7 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write (Go build cache, binary, span dumps) stays under .bench_build/.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config GOPATH=$out/gopath \
	GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$root/benchmark" && go build -o "$out/cottage-benchmark" .)
cd "$root"
exec "$out/cottage-benchmark" "$@"
