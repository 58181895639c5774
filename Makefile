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
# "Static analysis: the ledger"): eight analyzers over cross-package facts.
# Exit status 1 means findings; -stats reports per-analyzer counts and
# wall time, and a failure names the offending analyzers.
lint:
	go run ./cmd/flowlint -stats ./...

# 10-second fuzz pass over every fuzz target; the list lives in
# scripts/fuzz.sh, which scripts/check.sh runs too.
fuzz-short:
	./scripts/fuzz.sh 10s

# Ten-fold fuzz-short (100s per target): the weekly scheduled CI job. Long
# enough to reach coverage plateaus the 10s pass misses, short enough that
# ten targets finish inside the job timeout.
fuzz-long:
	./scripts/fuzz.sh 100s
