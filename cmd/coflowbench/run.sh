#!/usr/bin/env bash
# Builds coflowbench and coflowd from the surrounding checkout, then runs
# the benchmark with the given arguments, e.g.
#
#   bash cmd/coflowbench/run.sh --workload offline-lp --seed 3 --seconds 20 --trace 0
#   bash cmd/coflowbench/run.sh -seed 1 -sets 2
#
# Everything the build writes (compiler cache, temporary files, the two
# binaries) stays under .bench_build at the root of the checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
out=$root/.bench_build

export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOTMPDIR=$out/tmp
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS= CGO_ENABLED=0
mkdir -p "$out/bin" "$GOTMPDIR"

cd "$here"
go build -o "$out/bin/coflowbench" .
go build -o "$out/bin/coflowd" repro/cmd/coflowd
exec "$out/bin/coflowbench" -coflowd "$out/bin/coflowd" "$@"
