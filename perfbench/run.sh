#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it:
#
#   bash perfbench/run.sh --workload sweep-local --seed 1 --seconds 20 --trace 0
#
# perfbench is a module of its own (perfbench/go.mod) that builds
# against the repository's module one directory up. Everything the
# build and the run write stays in .bench_build/ at the root of the
# checkout (binary, Go build cache, scratch stores). Outside a checkout
# of the repository the build fails and the script exits non-zero
# without printing a result.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local \
	GOPROXY=off GOENV=off GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
