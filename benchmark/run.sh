#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark (a module of its
# own, so the repo's build file is untouched) and runs it from the checkout
# root. Every byte written — Go build cache, binaries, inputs, server data —
# stays under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local
go build -C "$here" -o "$out/dbtf-benchmark" .
cd "$root"
exec "$out/dbtf-benchmark" "$@"
