#!/usr/bin/env bash
# Builds the benchmark harness inside the checkout and runs it with the
# given arguments (see bench/README.md):
#
#   bash bench/run.sh --workload xmark_read --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ and
# bench/out/ of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/bin/fixload" ./fixload)
cd "$root"
exec "$build/bin/fixload" "$@"
