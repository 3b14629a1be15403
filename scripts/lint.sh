#!/bin/sh
# Static-check driver: the AST checker (tric_check).  It is first proved
# against its seeded-violation fixture corpus (test/fixtures/check), then
# scans lib/ and bin/.  Any finding fails the build; waivers are per-rule
# comments ("check: allow <rule>").
set -eu

cd "$(dirname "$0")/.."

dune build bin/tric_check.exe

./_build/default/bin/tric_check.exe --self-test
./_build/default/bin/tric_check.exe "$@"
