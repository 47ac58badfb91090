#!/usr/bin/env bash
# Builds the maoledger benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash maoledger/run.sh --workload cold-unique --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (the Go build cache, the binary, span
# dumps) stays under .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/maoledger"
mkdir -p "$out/gocache" "$out/gopath" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" HOME="$out/home" \
	XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod CGO_ENABLED=0

(cd "$root/maoledger" && go build -trimpath -o "$out/maoledger" .)
exec "$out/maoledger" "$@"
