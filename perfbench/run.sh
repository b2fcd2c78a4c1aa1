#!/usr/bin/env bash
# run.sh builds the end-to-end benchmark from source and runs it.
#
# Run from the repository root:
#
#	bash perfbench/run.sh --workload stamp-guided --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write (the Go build cache, the
# binary, the span files) stays under .bench_build/ in the current
# directory. The build needs the repository's own go.mod one level up,
# so a copy of perfbench/ on its own fails here with a non-zero exit.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOENV=off

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
