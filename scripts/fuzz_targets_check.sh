#!/usr/bin/env bash
# fuzz-targets-check: fails unless the targets given as arguments
# (package:Fuzz entries, the Makefile's FUZZ_TARGETS) are exactly the
# Fuzz functions in this module's test files, so fuzz-smoke neither
# skips a new target nor names a deleted one. The perfbench module is
# not part of this module and is skipped. `make lint` and
# `make fuzz-smoke` run it.
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C

found=$(grep -rEo --include='*_test.go' --exclude-dir=perfbench --exclude-dir=out \
  --exclude-dir=.bench_build --exclude-dir=.git '^func Fuzz[A-Za-z0-9_]*' . |
  sed -E 's|/[^/:]*:func |:|' | sort)
listed=$(printf '%s\n' "$@" | sort)

status=0
missing=$(comm -23 <(echo "$found") <(echo "$listed"))
if [ -n "$missing" ]; then
  echo "fuzz-targets-check: fuzz targets missing from FUZZ_TARGETS:" >&2
  echo "$missing" >&2
  status=1
fi
stale=$(comm -13 <(echo "$found") <(echo "$listed"))
if [ -n "$stale" ]; then
  echo "fuzz-targets-check: FUZZ_TARGETS names targets that do not exist:" >&2
  echo "$stale" >&2
  status=1
fi
exit $status
