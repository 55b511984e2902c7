#!/usr/bin/env bash
# Build the benchmark from the checkout's sources and run one workload:
#   bash perfbench/run.sh --workload game-flat --seed 1 --seconds 15 --trace 0
# The last line of standard output is the JSON result.  Must be started
# from the repository root; exits non-zero when the sources are missing or
# the build fails.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the repository root (dune-project, lib/ and perfbench/ are required)" >&2
  exit 2
fi
# keep the build inside the checkout: no shared dune cache in $HOME
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/yali_perfbench.exe >&2
exec ./_build/default/perfbench/yali_perfbench.exe "$@"
