#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root.
# Everything the build and the run leave behind goes under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd benchmark && go build -buildvcs=false -o "$out/livenas-benchmark" .)
exec "$out/livenas-benchmark" "$@"
