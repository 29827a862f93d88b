#!/usr/bin/env bash
# Build the benchmark from the sources of this checkout, then run it.
# Run from the repository root:
#   bash benchmark/run.sh --workload synth --seed 42 --seconds 10 --trace 0
# Build output goes to .bench_build/, run output (Chrome traces, scratch
# stores) to .bench_out/.  Exits non-zero, printing no result, when the
# build fails.
set -u
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
dune build --root . --build-dir .bench_build --cache=disabled \
  --display=quiet ./benchmark/bench.exe 1>&2 || exit 2
exec .bench_build/default/benchmark/bench.exe "$@"
