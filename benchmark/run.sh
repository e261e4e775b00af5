#!/usr/bin/env bash
# Builds the harness from source inside the checkout and runs it.
# Everything the toolchain writes (build cache, temp files, module
# cache, telemetry counters, the binary) is pointed under benchmark/out,
# so a run never writes outside the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
out="$PWD/out"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomod" "$out/config"
env GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOPROXY=off \
	GOTOOLCHAIN=local GOWORK=off \
	go build -o "$out/adbench" . >&2
exec "$out/adbench" "$@"
