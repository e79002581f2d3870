#!/usr/bin/env bash
# Builds perfbench from the checkout it is run in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload table5 --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and the run's outputs stay inside the
# checkout (.bench_build and .bench_out).
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOENV=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
