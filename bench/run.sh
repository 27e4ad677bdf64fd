#!/usr/bin/env bash
# Entry point of the repo benchmark (BENCHMARK.json "command"). Builds the
# harness and cmd/maxembed-server from the checkout's sources into
# .bench_build/, keeping the Go build cache there too so nothing outside
# the checkout is written, then runs the harness with the given flags.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local
go build -C bench -o "$out/bench" .
go build -o "$out/maxembed-server" ./cmd/maxembed-server
exec "$out/bench" -server "$out/maxembed-server" -tmp "$out" "$@"
