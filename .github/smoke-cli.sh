#!/usr/bin/env bash
# Smoke test of the installed `nasolve` console script: each subcommand once,
# then a sweep grid above 10^6 points, which must exit 1 and write nothing.
#
#     bash .github/smoke-cli.sh OUTPUT_ROOT
#
# OUTPUT_ROOT is a directory that holds no out, sweep, compare or huge yet.
set -eu
root=${1:?usage: smoke-cli.sh OUTPUT_ROOT}

nasolve verify fold --n 30 --start 3.0 --end 3.6 --step 0.05
nasolve solve --problem singular_quadratic --output "$root/out"
nasolve sweep --problem bratu1d --param n=10 --sweep lambda:1.0:1.2:0.1 --warm-start --output "$root/sweep"
nasolve compare --problem chandrasekhar --param n=10 --method newton --method agna --output "$root/compare"
# a grid above 10^6 points exits 1 before writing anything; an explicit test,
# as a `!` prefix never trips `set -e`
code=0
nasolve sweep --problem bratu1d --sweep lambda:3:3.6:1e-12 --output "$root/huge" || code=$?
if [ "$code" -ne 1 ] || [ -e "$root/huge" ]; then
  echo "over-bound sweep: exit $code, expected 1 and no output directory"
  exit 1
fi
