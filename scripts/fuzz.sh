#!/usr/bin/env bash
# fuzz.sh TIME runs every fuzz target for TIME each (a -fuzztime value:
# 10s from scripts/check.sh and make fuzz-short, 100s from make fuzz-long).
# This is the one list of targets: the text parsers (cell specs, queries,
# .fdb records), the binary snapshot decoder, the cell comparator against
# the decimal-key order, the append path against a full rebuild, WAL replay,
# the candidate join against its brute-force definition, support counting
# against its recursive reference, the cell-answer
# writer against encoding/json and the one-walk flowgraph similarity against
# its two-walk reference. Snapshot minimization is iteration-bounded: its
# inputs are tens of kilobytes, and the default 60s time-based minimization
# of each newly interesting input would dwarf the fuzz time itself.
set -euo pipefail
cd "$(dirname "$0")/.."
t=${1:?usage: scripts/fuzz.sh TIME}

go test ./internal/core -run '^$' -fuzz FuzzParseCellSpec -fuzztime "$t"
go test ./internal/olap -run '^$' -fuzz FuzzParseQuery -fuzztime "$t"
go test ./internal/core -run '^$' -fuzz FuzzLoadSnapshot -fuzztime "$t" -fuzzminimizetime 10x
go test ./internal/core -run '^$' -fuzz FuzzCompareCells -fuzztime "$t"
go test ./internal/pathdb -run '^$' -fuzz FuzzRead -fuzztime "$t"
go test ./internal/core -run '^$' -fuzz FuzzApplyDelta -fuzztime "$t"
go test ./internal/ingest -run '^$' -fuzz FuzzWALReplay -fuzztime "$t"
go test ./internal/itemset -run '^$' -fuzz FuzzJoinMatchesBruteForce -fuzztime "$t"
go test ./internal/itemset -run '^$' -fuzz FuzzCountMatchesReference -fuzztime "$t"
go test ./internal/server -run '^$' -fuzz FuzzRenderMatchesReference -fuzztime "$t"
go test ./internal/flowgraph -run '^$' -fuzz FuzzSimilarityMatchesReference -fuzztime "$t"
