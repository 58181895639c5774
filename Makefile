# Convenience targets; the source of truth for CI-style verification is
# scripts/check.sh (vet + build + orphan-package gate + flowlint +
# race-detector tests + short fuzz). Performance is measured by
# benchmark/run.sh alone (see benchmark/README.md).

.PHONY: build test check lint fuzz-short fuzz-long

build:
	go build ./...

test:
	go test ./...

check:
	./scripts/check.sh

# Run the project's static-analysis suite (see cmd/flowlint and DESIGN.md
# "Static analysis: the ledger"): nine analyzers over cross-package facts.
# Exit status 1 means findings; -stats reports per-analyzer counts and
# wall time, and a failure names the offending analyzers.
lint:
	go run ./cmd/flowlint -stats ./...

# 10-second fuzz pass over the text parsers (cell specs, .fdb records), the
# binary snapshot decoder, the cell comparator against the decimal-key order
# and the candidate join against its brute-force definition. Minimization is iteration-bounded: snapshot
# inputs are tens of kilobytes, and the default 60s time-based minimization
# of each newly interesting input would dwarf the fuzz time itself.
fuzz-short:
	go test ./internal/core -run '^$$' -fuzz FuzzParseCellSpec -fuzztime 10s
	go test ./internal/olap -run '^$$' -fuzz FuzzParseQuery -fuzztime 10s
	go test ./internal/core -run '^$$' -fuzz FuzzLoadSnapshot -fuzztime 10s -fuzzminimizetime 10x
	go test ./internal/core -run '^$$' -fuzz FuzzCompareCells -fuzztime 10s
	go test ./internal/pathdb -run '^$$' -fuzz FuzzRead -fuzztime 10s
	go test ./internal/incr -run '^$$' -fuzz FuzzApplyDelta -fuzztime 10s
	go test ./internal/ingest -run '^$$' -fuzz FuzzWALReplay -fuzztime 10s
	go test ./internal/itemset -run '^$$' -fuzz FuzzJoinMatchesBruteForce -fuzztime 10s

# Ten-fold fuzz-short (100s per target): the weekly scheduled CI job. Long
# enough to reach coverage plateaus the 10s pass misses, short enough that
# eight targets finish inside the job timeout.
fuzz-long:
	go test ./internal/core -run '^$$' -fuzz FuzzParseCellSpec -fuzztime 100s
	go test ./internal/olap -run '^$$' -fuzz FuzzParseQuery -fuzztime 100s
	go test ./internal/core -run '^$$' -fuzz FuzzLoadSnapshot -fuzztime 100s -fuzzminimizetime 10x
	go test ./internal/core -run '^$$' -fuzz FuzzCompareCells -fuzztime 100s
	go test ./internal/pathdb -run '^$$' -fuzz FuzzRead -fuzztime 100s
	go test ./internal/incr -run '^$$' -fuzz FuzzApplyDelta -fuzztime 100s
	go test ./internal/ingest -run '^$$' -fuzz FuzzWALReplay -fuzztime 100s
	go test ./internal/itemset -run '^$$' -fuzz FuzzJoinMatchesBruteForce -fuzztime 100s
