#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments.
# Run from the root of a checkout:
#   bash perfbench/run.sh --workload rowa-uniform --seed 97 --seconds 10 --trace 0
# Build output goes to stderr; the benchmark's report is the only stdout.
set -euo pipefail

if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi

# Keep every build artifact inside the checkout: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/run.exe 1>&2
exec ./_build/default/perfbench/run.exe "$@"
