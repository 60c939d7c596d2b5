#!/usr/bin/env bash
# Builds the live-plane benchmark from source and runs one workload.
# Run it from the repository root:
#
#   bash livebench/bench.sh --workload reinstall --seed 1 --seconds 55 --trace 0
#
# Every build and run artifact (Go build cache, binary, WAL temp dirs,
# traced-run spans and CPU profiles) stays under .bench_build/ in the
# current directory. Build output goes to stderr, so the last line of
# stdout is the benchmark's JSON result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS=
# The go command keeps telemetry and reads user config under these.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
go -C "$root/livebench" build -o "$out/livebench" . >&2
exec "$out/livebench" "$@"
