#!/usr/bin/env bash
# Build the benchmark from source in the current checkout, then run it.
#
#   bash e2e/run.sh --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
#
# Run from the repository root.  Everything dune writes stays under
# ./_build (its shared cache is disabled).  Progress goes to stderr; the
# last line of stdout is the JSON result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "e2e/run.sh: run from the root of an IRIS checkout (no dune-project or lib/ here)" >&2
  exit 2
fi

export DUNE_CACHE=disabled
dune build --root . --display quiet ./e2e/main.exe >&2
exec ./_build/default/e2e/main.exe run "$@"
