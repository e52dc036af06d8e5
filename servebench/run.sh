#!/usr/bin/env bash
# Builds the serving benchmark from this checkout's sources and runs it,
# passing every argument through:
#
#   bash servebench/run.sh --workload warm --seed 1 --seconds 50 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and the
# benchmark's scratch files all stay under .bench_build there. The
# benchmark runs on one vCPU, the last this shell may use (the first takes
# most interrupts); see servebench/host.go for why.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C servebench build -o "$out/servebench" .
if command -v taskset >/dev/null; then
	cpu=$(taskset -pc $$)
	exec taskset -c "${cpu##*[ ,-]}" "$out/servebench" "$@"
fi
echo "servebench: taskset not found, running on every vCPU" >&2
exec "$out/servebench" "$@"
