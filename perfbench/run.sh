#!/usr/bin/env bash
# Builds and runs the benchmark from the root of a source tree:
#   bash perfbench/run.sh --workload suite --seed 1 --seconds 20 --trace 0
# Everything the build and the run write stays under .bench_build/
# (or $CARGO_TARGET_DIR when set).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ]; then
  echo "perfbench: not a source tree: no go.mod at $root" >&2
  exit 1
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOMODCACHE="$out/gomod" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOENV=off GOTELEMETRY=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
