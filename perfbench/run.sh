#!/bin/sh
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#	sh perfbench/run.sh --workload repro-cold --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write lands under .bench_build/ in the
# current directory: the Go build cache, the binary, and the run's scratch
# files. The benchmark is a module of its own that reaches the program's
# packages through a replace directive, so outside a checkout of the whole
# repository the build fails and the script exits non-zero.
set -eu
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" # where the go command keeps telemetry
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
