#!/usr/bin/env bash
# Checks that every |-separated alternative of a `go test -run` pattern
# matches at least one test in the given packages, so a test that is
# renamed or deleted cannot silently drop out of a step that selects
# tests by name. The pattern must be a flat alternation (no | inside
# parentheses); each alternative is matched as -run would match it,
# through `go test -list`.
#
# Usage: scripts/check_run_pattern.sh PATTERN PACKAGE...
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
  echo "usage: $0 PATTERN PACKAGE..." >&2
  exit 2
fi
pattern=$1
shift

IFS='|' read -ra alts <<<"$pattern"
missing=0
for alt in "${alts[@]}"; do
  listed=$(go test -list "$alt" "$@")
  if ! grep -qE '^(Test|Example|Fuzz)' <<<"$listed"; then
    echo "no test in $* matches -run alternative \"$alt\"" >&2
    missing=1
  fi
done
exit "$missing"
