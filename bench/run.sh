#!/usr/bin/env bash
# Builds the benchmark from source and runs it from bench/, passing every
# argument through. The build cache, the Go tool's config directory and
# the binary live in bench/.build/, so a run writes nothing outside the
# checkout and needs no network. Without the simulator's sources beside
# bench/ the build fails and the script exits non-zero.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
build="$PWD/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -o "$build/sara-bench" .
exec "$build/sara-bench" "$@"
