#!/usr/bin/env bash
# Builds the benchmark harness and runs it from the repository root:
#
#   bash perfbench/run.sh --workload fig11-cold --seed 1 --seconds 20 --trace 0
#
# Every build product and Go cache lives under .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
export GOCACHE="$root/.bench_build/go-cache"
export GOMODCACHE="$root/.bench_build/go-mod"
export GOTMPDIR="$root/.bench_build/go-tmp"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS=
mkdir -p "$GOCACHE" "$GOMODCACHE" "$GOTMPDIR"
(cd "$root/perfbench" && go build -o "$root/.bench_build/perfbench" .) >&2
exec "$root/.bench_build/perfbench" "$@"
