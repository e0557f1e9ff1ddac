#!/usr/bin/env bash
# Prints the root module's Go line counts, non-test and test files
# apart, with the nested perfbench/ module left out. These are the
# figures each CHANGES.md entry records and ROADMAP's "the total should
# fall" is judged on. It counts every line (blank and comment lines
# too) of the .go files git tracks or would add, as they stand in the
# working tree.
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count() { # count <grep flag>: total lines of the test or non-test files
  git ls-files --cached --others --exclude-standard -- '*.go' ':!perfbench/' |
    sort -u | grep "$1" '_test\.go$' |
    while read -r f; do [ -f "$f" ] && cat "$f"; done | wc -l
}

echo "non-test Go: $(count -v)"
echo "test Go:     $(count -e)"
