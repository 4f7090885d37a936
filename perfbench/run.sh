#!/usr/bin/env bash
# Builds cfserve and the benchmark from this checkout's source into
# .bench_build/, then runs the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload whatif-cold --seed 1 --seconds 10 --trace 0
#
# All build state (Go build cache, temporaries, binaries, trace spans)
# stays under .bench_build/.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -o "$out/cfserve" ./cmd/cfserve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -cfserve "$out/cfserve" -trace-dir "$out/traces" "$@"
