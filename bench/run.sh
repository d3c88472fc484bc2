#!/usr/bin/env bash
# Entry point of BENCHMARK.json's command: build goflow-load from source
# into .bench_build and hand it the arguments. Everything the Go tool
# writes — build cache, temp files, its own config and counters — is
# pointed inside .bench_build, so nothing lands outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build/gotmp
export GOCACHE="$PWD/.bench_build/gocache"
export GOTMPDIR="$PWD/.bench_build/gotmp"
export XDG_CONFIG_HOME="$PWD/.bench_build/config"
export GOFLAGS=-buildvcs=false
go build -C cmd/goflow-load -o "$PWD/.bench_build/goflow-load" .
exec .bench_build/goflow-load "$@"
