#!/usr/bin/env bash
# Builds mspgemm-trajectory from source and runs it with the given
# arguments, from the repository root:
#
#   bash cmd/mspgemm-trajectory/bench.sh --workload tc-skew-ref --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache, the toolchain's temporary files and its
# telemetry settings all live under .bench_build at the repository root,
# so a run reads and writes nothing else. The build fails, and the
# script exits non-zero without a result, outside a checkout of the
# module.
set -euo pipefail
cd "$(dirname "$0")/../.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
# Telemetry off: no counter files, and no upload process outliving the build.
printf 'off\n' >"$build/config/go/telemetry/mode"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$build/mspgemm-trajectory" ./cmd/mspgemm-trajectory
exec "$build/mspgemm-trajectory" "$@"
