#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing the
# arguments through (--workload, --seed, --seconds, --trace). The binary, the
# Go build cache, the Go tool's own state and the span logs stay under
# .bench_build in the checkout. Run it from the root of the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/go-cache" "$out/tmp" "$out/go-config" "$out/go-path"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/go-config" GOPATH="$out/go-path" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
