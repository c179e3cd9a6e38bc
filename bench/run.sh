#!/usr/bin/env bash
# The driver's entry point: `bash bench/run.sh --workload <name> --seed <n>
# --seconds <s> --trace <0|1>`, run from the root of a checkout. It keeps
# everything the Go toolchain writes (build cache, temporary files, its own
# config) inside the checkout's .bench_build, then hands over to the harness.
set -euo pipefail
cd "$(dirname "$0")/.."

# Without the program there is nothing to measure: say so before any tool runs.
for f in go.mod cmd/adapiped/main.go; do
  if [ ! -f "$f" ]; then
    echo "bench: $f not found: this checkout does not hold the program" >&2
    exit 2
  fi
done

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
# With a fresh config directory every `go` command would detach a telemetry
# child in its own session that outlives the run; mode "off" spawns none.
echo off > "$build/config/go/telemetry/mode"

go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
