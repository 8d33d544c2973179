#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload xproc-pingpong --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the traced run's span file stay
# under $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOTMPDIR=$out GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
