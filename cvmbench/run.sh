#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it with
# the arguments given (see main.ml). Build output goes to stderr so the
# last line of standard output stays the benchmark's JSON result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export DUNE_CACHE=disabled
dune build --root . --build-dir .bench_build ./cvmbench/main.exe 1>&2
exec ./.bench_build/default/cvmbench/main.exe --out cvmbench/_out "$@"
