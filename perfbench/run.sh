#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it; arguments pass through:
#
#   bash perfbench/run.sh --workload board-knee --seed 1 --seconds 30 --trace 0
#
# Everything the Go toolchain writes (build cache, binary) stays under
# .bench_build at the repository root, or under $CARGO_TARGET_DIR if set.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off

(cd "$bench_dir" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
