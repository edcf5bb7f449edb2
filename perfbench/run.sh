#!/usr/bin/env bash
# Builds seprivd and the benchmark driver from this checkout, then runs
# the driver with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload jobs-fresh --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh steady --workload sweep-table --runs 10
#
# Everything the build and the runs write stays under .bench_build.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
# With telemetry on (its default is "local"), the go command forks a
# detached sidecar process that outlives the build. Turn it off in the
# private config directory before the first go command runs.
mkdir -p "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"

go build -o "$build/bin/seprivd" ./cmd/seprivd >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2

if [[ "${1:-}" == steady ]]; then
	shift
	exec "$build/bin/perfbench" steady -server "$build/bin/seprivd" -work "$build/work" "$@"
fi
exec "$build/bin/perfbench" -server "$build/bin/seprivd" -work "$build/work" "$@"
