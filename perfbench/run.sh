#!/usr/bin/env bash
# Builds the ATM benchmark from the checkout it sits in and runs it.
# Usage, from the root of the checkout:
#
#   bash perfbench/run.sh --workload firehose|replan|all \
#        [--seed N] [--seconds S] [--trace 0|1]
#
# The Go build cache, temporary files and the binary stay under
# .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
# XDG_CONFIG_HOME keeps the toolchain's telemetry and env files in the
# checkout too; the module has no external dependencies, so the proxy
# is off.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
  GOPATH="$out/gopath" GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/atmperf" .)
exec "$out/atmperf" "$@"
