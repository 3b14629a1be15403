#!/bin/sh
# Build the benchmark and the server it drives from source, then run one
# workload.  Run from the root of a source checkout:
#
#   sh tricbench/run.sh --workload snb-grow --seed 7 --seconds 15 --trace 0
#
# Build output goes to stderr; the last line on stdout is the run's JSON
# result.  Any other argument of `tricbench run` (--record FILE, --out DIR)
# is passed through.
set -eu

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "tricbench: no source tree here (dune-project, lib/ and bin/); run from the root of a checkout" >&2
  exit 2
fi

dune build --root . ./tricbench/tricbench.exe ./bin/tric_cli.exe 1>&2
exec "${DUNE_BUILD_DIR:-_build}/default/tricbench/tricbench.exe" run "$@"
