#!/usr/bin/env bash
# Builds the benchmark and the pas-tool daemon it drives, then runs one
# workload:  bash benchmark/run.sh --workload <name> --seed <n> \
#              --seconds <s> --trace <0|1>
# Run from the root of a checkout. Build output goes to stderr, so the
# last line of stdout is the result object.
set -euo pipefail
dune build --root . --cache=disabled --display=quiet -j 2 \
  ./benchmark/run.exe ./bin/pas_tool.exe >&2
exec ./_build/default/benchmark/run.exe "$@"
