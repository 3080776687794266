#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the given
# arguments. Run from the repository root:
#
#	bash perfbench/run.sh --workload commit-hot --seed 1 --seconds 30 --trace 0
#
# Every file the build and the run write stays inside the checkout: the Go
# build cache, the binary and the spill directories live under the build
# directory ($CARGO_TARGET_DIR, default .bench_build) and .perfbench/.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/perfbench/go.mod" || ! -f "$root/go.mod" ]]; then
	echo "perfbench: run from the repository root (perfbench/go.mod and go.mod must exist)" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/home" "$build/tmp"

# Keep the Go toolchain's caches, config and telemetry inside the checkout,
# offline, and on the library's static parallel cutoffs.
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOPROXY=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
unset PRIU_PAR_MINWORK

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
