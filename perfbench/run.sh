#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build cache, the
# binary, per-run reports, determinism records and scand data.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/go-cache" "$build/go-tmp"
export GOCACHE=$build/go-cache GOTMPDIR=$build/go-tmp GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

# The commit goes into the result header; a checkout that is not a git
# repository reports "unknown". Git must not look above the checkout.
commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git rev-parse HEAD 2>/dev/null || echo unknown)

(cd perfbench && go build -buildvcs=false -o "$build/perfbench" .) >&2
exec "$build/perfbench" --out "$build/perfbench-out" --commit "$commit" "$@"
