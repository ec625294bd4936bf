#!/usr/bin/env bash
# Builds the served benchmark from this checkout's sources and runs it with
# the given arguments, e.g.
#
#   bash servebench/run.sh --workload rh-mem --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, the WAL
# store's temporary directory) stays under .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
  GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
  GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -C "$root/servebench" -o "$build/servebench" .
exec "$build/servebench" "$@"
