#!/usr/bin/env bash
# Builds checkd's benchmark driver from this checkout's sources and runs
# it, from the root of the checkout:
#
#   bash perfbench/run.sh --workload cold-ring --seed 1 --seconds 10 --trace 0
#
# Build products, Go's caches and temporary files, scratch files, traces
# and the fleet counter history all stay under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOTELEMETRY=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
