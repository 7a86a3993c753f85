#!/usr/bin/env bash
# Builds sqlserved and the benchmark from source into .bench_build/ of
# the checkout it is run from, then runs the benchmark with the given
# arguments:
#
#   bash servebench/run.sh --workload gateway-hot --seed 1 --seconds 25 --trace 0
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# Everything the build writes stays inside the checkout; the modules need
# nothing from the network.
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/sqlserved" ./cmd/sqlserved
(cd "$root/servebench" && go build -o "$out/servebench" .)
exec "$out/servebench" "$@"
