#!/usr/bin/env bash
# Non-test Go lines per package directory, one "lines package" row each,
# largest first, then the total. Report only: scripts/check.sh prints it so
# deletion PRs can quote their before/after (ROADMAP "Deletion pass").
set -euo pipefail
cd "$(dirname "$0")/.."

find . \( -name '.*' ! -name . -o -name testdata \) -prune -o \
  -name '*.go' ! -name '*_test.go' -print |
  while read -r f; do
    printf '%s %s\n' "$(wc -l < "$f")" "$(dirname "${f#./}")"
  done | awk '{n[$2] += $1; total += $1}
    END {for (p in n) printf "%7d %s\n", n[p], p; printf "%7d total\n", total}' |
  sort -k1,1nr -k2,2
