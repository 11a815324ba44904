#!/usr/bin/env bash
# Builds the benchmark harness from the checkout's sources and runs it with
# the given arguments, e.g.
#
#   bash benchmark/run.sh --workload multisocket --seed 1 --seconds 26 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout: the binary, the Go build cache, the build's
# temporary files, and trace files.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/go-cache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/go-path"
export GOMODCACHE="$build/go-path/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$here" && go build -o "$build/mitosis-benchmark" .)
cd "$root"
exec "$build/mitosis-benchmark" "$@"
