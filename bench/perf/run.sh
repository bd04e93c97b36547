#!/usr/bin/env bash
# Builds the benchmark from source, then runs it with the given arguments.
# Run from the root of the repository, e.g.
#   bash bench/perf/run.sh --workload sim-k8 --seed 1 --seconds 20 --trace 0
# Build output goes to stderr; the result's JSON is the last line on stdout.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet -j 2 ./bench/perf/perf.exe >&2
exec ./_build/default/bench/perf/perf.exe "$@"
