#!/usr/bin/env bash
# CI's legs on every interpreter under a prefix, for a machine where the
# workflow does not run:
#
#     ci/legs.sh PREFIX [SITE]      e.g. ci/legs.sh ~/.pyenv/versions
#
# The interpreters are PREFIX/*/bin/python.  On each it runs ci/check.sh,
# the bench self-test and Tier-1, and prints one line per leg: passed,
# failed (its log kept, the path printed) or could not run.  Every leg of an
# interpreter older than pyproject.toml's requires-python could not run, and
# so could Tier-1 where pytest and Hypothesis do not import.  SITE, a
# directory that holds both, goes on PYTHONPATH for the Tier-1 leg of an
# interpreter that has none of its own.  ci/check.sh cross-checks the exact
# root kernel against math.isqrt with the standard library alone, so an
# interpreter where Tier-1 could not run still checks it.  Exits 1 if a
# leg failed.
set -u
cd "$(dirname "$0")/.."
prefix=${1:?usage: ci/legs.sh PREFIX [SITE]}
site=${2:-}
need=$(sed -n 's/^requires-python = ">=\([0-9.]*\)"$/\1/p' pyproject.toml)
logs=$(mktemp -d)
failed=0

leg() {  # leg NAME LOG COMMAND...: run the command, print one line
  local name=$1 log=$2
  shift 2
  if "$@" > "$log" 2>&1; then
    echo "$name: passed"
    rm -f "$log"
  else
    echo "$name: failed (log: $log)"
    failed=1
  fi
}

for py in "$prefix"/*/bin/python; do
  version=$("$py" -c 'import platform; print(platform.python_version())' 2>/dev/null) || version=$py
  if ! "$py" -c "import sys; sys.exit(sys.version_info < tuple(map(int, '$need'.split('.'))))" 2>/dev/null; then
    for name in check.sh bench Tier-1; do
      echo "$version $name: could not run (requires Python >= $need)"
    done
    continue
  fi
  leg "$version check.sh" "$logs/$version-check.log" bash ci/check.sh "$py"
  leg "$version bench" "$logs/$version-bench.log" "$py" bench/test_bench.py
  path=src${PYTHONPATH:+:$PYTHONPATH}
  if ! "$py" -c 'import pytest, hypothesis' 2>/dev/null; then
    if [ -n "$site" ] && PYTHONPATH=$site "$py" -c 'import pytest, hypothesis' 2>/dev/null; then
      path=$path:$site
    else
      echo "$version Tier-1: could not run (pytest and Hypothesis do not import)"
      continue
    fi
  fi
  leg "$version Tier-1" "$logs/$version-tier1.log" \
    env PYTHONPATH="$path" "$py" -m pytest -q --continue-on-collection-errors
done
rmdir "$logs" 2>/dev/null
exit $failed
