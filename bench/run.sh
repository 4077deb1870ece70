#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (go caches included, so
# nothing outside the checkout is touched) and runs it from the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
(
	cd "$root/bench"
	GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
		GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
		go build -o "$build/policybench" .
)
cd "$root"
exec "$build/policybench" "$@"
