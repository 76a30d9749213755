#!/usr/bin/env bash
# Harness entry point: builds e2e.exe from the sources of the checkout
# it is run from, then runs one workload under the harness protocol:
#
#   bash bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
#
# The last line of standard output is the JSON result. Everything the
# build writes stays inside the checkout (_build/ and .bench_tmp/).
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/dune-project" ] || [ ! -d "$root/lib" ] || [ ! -f "$root/bench/e2e/dune" ]; then
  echo "run.sh: run from the root of a Horse checkout" >&2
  exit 2
fi

export DUNE_CACHE=disabled
export TMPDIR="$root/.bench_tmp"
mkdir -p "$TMPDIR"
dune build --root "$root" --display quiet ./bench/e2e/e2e.exe >&2
exec "$root/_build/default/bench/e2e/e2e.exe" bench "$@"
