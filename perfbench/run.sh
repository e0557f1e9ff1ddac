#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it, passing
# every argument on. Run it from the repository root, for example:
#
#   bash perfbench/run.sh --workload mesh-lowload --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and the binary all live under
# .bench_build in the checkout, so the run reads and writes nothing
# outside it but the Go toolchain.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOENV=off GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
