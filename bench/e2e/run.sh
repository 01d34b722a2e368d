#!/usr/bin/env bash
# Builds ccp_bench from source and runs it: `bash bench/e2e/run.sh ARGS`
# is `ccp_bench run ARGS` (see ccp_bench.ml for the arguments). Build
# output goes to stderr, so the last line of stdout is the result.
set -eu
cd "$(dirname "$0")/../.."
export DUNE_CACHE=disabled
dune build --root . ./bench/e2e/ccp_bench.exe 1>&2
exec ./_build/default/bench/e2e/ccp_bench.exe run "$@"
