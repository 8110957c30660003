#!/usr/bin/env bash
# Builds the perfbench program from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload ring_1e6 --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, scratch stores, result records) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/go-build"
export GOMODCACHE="$out/go-mod"
export GOPATH="$out/go-path"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOPROXY=off
export GOWORK=off

go -C "$root/perfbench" build -o "$out/perfbench" .

commit=unknown
if [ -e "$root/.git" ] && command -v git >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi

exec "$out/perfbench" --root "$root" --commit "$commit" "$@"
