#!/usr/bin/env bash
# One cold report leg: clear the artifact cache, run the battery with a
# deterministic report, and byte-compare the report against EXPECTED.
# When they differ, the first 200 lines of `diff -u EXPECTED OUT` show
# which rows moved, and the leg still fails.
#
#   scripts/report-leg.sh EXPECTED OUT [run-all args...]
#
# The cache cleared is the one REPRO_CACHE_DIR names (or the default),
# so a leg run with its own REPRO_CACHE_DIR keeps what it wrote there.
set -euo pipefail

if [ "$#" -lt 2 ]; then
  echo "usage: $0 EXPECTED OUT [run-all args...]" >&2
  exit 2
fi
expected=$1
out=$2
shift 2

repro cache clear
repro run-all --deterministic "$@" --out "$out"
if ! cmp "$out" "$expected"; then
  diff -u "$expected" "$out" | head -n 200 || true
  exit 1
fi
