#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and the
# run leave behind stays under .bench_build/ in the working directory (the
# root of a checkout): Go's build cache and temp files, the binary, and the
# benchmark's own temp dirs. Arguments go to the binary unchanged:
#
#   bash bench/run.sh --workload fe_ingest_query --seed 1 --seconds 12 --trace 0
#   bash bench/run.sh compare <dirA> <dirB>
set -euo pipefail
root=$PWD
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
