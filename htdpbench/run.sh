#!/usr/bin/env bash
# Builds the htdp benchmark from the checkout it sits in and runs it with
# the given arguments, e.g.
#
#   bash htdpbench/run.sh --workload cold-mem --seed 1 --seconds 12 --trace 0
#
# Run it from the root of the checkout. Every build product stays in the
# checkout: the Go build cache, the module cache and the binary go to
# .bench_build/, the benchmark's own output to .bench_out/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0

(cd "$root/htdpbench" && go build -o "$build/htdpbench" .) >&2
exec "$build/htdpbench" "$@"
