#!/usr/bin/env bash
# Builds bin/spatialdb.exe and the benchmark (bench.exe) from source,
# then runs bench.exe with the given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload union-query --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --self-test
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -f bin/spatialdb.ml ] || [ ! -d lib ]; then
  echo "perfbench: not a spatialdb source tree (dune-project, bin/ or lib/ missing)" >&2
  exit 2
fi
# Build output goes to stderr: the last stdout line is the result.
DUNE_CACHE=disabled dune build --root . ./bin/spatialdb.exe ./perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
