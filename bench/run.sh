#!/usr/bin/env bash
# Builds the benchmark harness from the checkout this script sits in and runs
# it with the arguments given. Everything the builds and the run write — go
# build cache, module cache, go's own config and telemetry files, binaries,
# temp dirs, span files — stays under .bench_build/ in the checkout. In a
# directory that holds only BENCHMARK.json and bench/ the build fails (there
# is no module to replace `flexile` with) and the script exits non-zero
# without printing a result.
set -euo pipefail
bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench_dir")
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C "$bench_dir" -o "$build/bin/flexile-bench" .
cd "$root"
exec "$build/bin/flexile-bench" "$@"
