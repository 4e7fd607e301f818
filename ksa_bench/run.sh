#!/usr/bin/env bash
# Build the benchmark from source, then run one measurement:
#
#   bash ksa_bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout.  The build's output goes to stderr;
# stdout carries the report, ending in one JSON result line.  Exits
# non-zero without a result when the program cannot be built.
set -u
cd "$(dirname "$0")/.." || exit 2
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)"
fi
# --cache=disabled keeps the build inside the checkout
dune build --root . --cache=disabled ./ksa_bench/ksa_bench.exe 1>&2 || exit 1
exec ./_build/default/ksa_bench/ksa_bench.exe run "$@"
