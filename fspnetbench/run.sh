#!/usr/bin/env bash
# Builds fspnetbench from the sources of the checkout it runs in and runs
# it with the given arguments. Run from the checkout's root:
#
#   bash fspnetbench/run.sh --workload reach-sat --seed 1 --seconds 25 --trace 0
#
# Everything it builds or writes stays under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
    GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/fspnetbench" && go build -o "$build/fspnetbench" .) >&2
exec "$build/fspnetbench" "$@"
