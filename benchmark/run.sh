#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness (package
# flowcube/benchmark) into .bench_build/ at the checkout root and runs it
# from there. The Go build cache (and GOPATH, which nothing here fills) are kept
# inside the checkout too unless the caller already chose them, so the
# benchmark writes nothing outside its checkout and needs no HOME.
set -euo pipefail
cd "$(dirname "$0")/.."
export GOCACHE="${GOCACHE:-$PWD/.bench_build/gocache}" GOPATH="${GOPATH:-$PWD/.bench_build/gopath}" GOTOOLCHAIN=local
go build -o .bench_build/bin/benchmark ./benchmark
exec .bench_build/bin/benchmark "$@"
