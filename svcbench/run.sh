#!/usr/bin/env bash
# Builds memschedd and the benchmark driver from the checkout, then runs the
# driver with the given arguments. Run from the repository root:
#
#   bash svcbench/run.sh --workload inline-routed --seed 1 --seconds 30 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ (or
# $CARGO_TARGET_DIR when set), so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/bin"

# The go command keeps its build cache, module cache and (through the
# user config directory) telemetry settings under $out as well. Telemetry is
# switched off before the first go command: otherwise that command forks a
# detached telemetry process that outlives the benchmark.
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
mkdir -p "$out/config/go/telemetry"
printf 'off\n' > "$out/config/go/telemetry/mode"

go build -buildvcs=false -o "$out/bin/memschedd" ./cmd/memschedd >&2
(cd svcbench && go build -buildvcs=false -o "$out/bin/svcbench" .) >&2

exec "$out/bin/svcbench" -memschedd "$out/bin/memschedd" -out "$out" "$@"
