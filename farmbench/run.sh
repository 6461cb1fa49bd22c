#!/usr/bin/env bash
# Builds the farm benchmark from source and runs it with the given
# arguments, from the repository root:
#
#   bash farmbench/run.sh --workload armed-catalog --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build in
# the checkout: the Go build cache, temporary files and the binary.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOENV=off
(cd "$root/farmbench" && go build -o "$build/farmbench" .)
cd "$root"
exec "$build/farmbench" "$@"
