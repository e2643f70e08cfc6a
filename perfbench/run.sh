#!/usr/bin/env bash
# Builds delta-server and the benchmark from this checkout, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload explore-jobs --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache, process logs and span dumps all stay
# under .bench_build/ in the checkout.
set -euo pipefail
if [[ ! -f go.mod || ! -f perfbench/go.mod || ! -d cmd/delta-server ]]; then
  echo "perfbench: run from the repository root (go.mod and cmd/delta-server not found)" >&2
  exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files in
# the checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
  XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -o "$out/bin/delta-server" ./cmd/delta-server
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --server "$out/bin/delta-server" --out "$out" "$@"
