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
# root kernel against math.isqrt, the anchored certificate against a
# row-by-row one and the lemma tables' valuations against reduced sums, and
# proves the closed-form family in Q(t), with the standard library alone, so
# an interpreter where Tier-1 could not run still checks them.  Exits 1 if a leg failed.
#
# pytest needs exception groups, builtin from 3.11 and from the
# exceptiongroup backport before that, and tomli before 3.11.  On an
# interpreter with neither the builtin groups nor the backport, the Tier-1
# leg gets ci/standin/ on its path, and its line says "(exceptiongroup
# stand-in)".  ci/standin/exceptiongroup.py is not the backport: it carries
# only what pytest and Hypothesis call and formats no group's sub-exceptions,
# so a failure that only the real group's report shows could be missed
# there.  ci/standin/tomli.py re-exports the tomli that the interpreter's own
# pip vendors.  CI installs the real backport and never uses either; its 3.10
# leg stays the reference.
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
    echo "$name: passed$note"
    rm -f "$log"
  else
    echo "$name: failed$note (log: $log)"
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
  note=
  leg "$version check.sh" "$logs/$version-check.log" bash ci/check.sh "$py"
  leg "$version bench" "$logs/$version-bench.log" "$py" bench/test_bench.py
  path=src${PYTHONPATH:+:$PYTHONPATH}
  if ! "$py" -c 'BaseExceptionGroup' 2>/dev/null \
      && ! PYTHONPATH=$path${site:+:$site} "$py" -c 'import exceptiongroup' 2>/dev/null; then
    path=$path:$PWD/ci/standin
    note=" (exceptiongroup stand-in)"
  fi
  if ! PYTHONPATH=$path "$py" -c 'import pytest, hypothesis' 2>/dev/null; then
    if [ -n "$site" ] && PYTHONPATH=$path:$site "$py" -c 'import pytest, hypothesis' 2>/dev/null; then
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
