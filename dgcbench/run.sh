#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it; every
# argument is passed on (--workload, --seed, --seconds, --trace). Run it
# from the repository root. The build cache, the binary and the
# checkpoint stores stay under .bench_build in the checkout.
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
(cd "$root/dgcbench" && go build -o "$out/dgcbench" .)
exec "$out/dgcbench" --tmp "$out" "$@"
