#!/usr/bin/env bash
# Build the benchmark from the checkout it is run in, then run it:
#   bash perfbench/run.sh --workload triage --seed 1 --seconds 20 --trace 0
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from the root of an fpga-debug checkout" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
