#!/usr/bin/env bash
# Repo verify path: static analysis plus the full test suite under the race
# detector. The race run is what keeps the concurrent serving layer
# (internal/server, cmd/flowserve) honest — snapshot hot-reload, the
# single-flight response cache and graceful shutdown are all exercised by
# tests that hammer the server from many goroutines. flowlint layers the
# project-specific contracts on top — eight analyzers, each kept because a
# seeded bug of a class it reports got past go vet and this race run
# (DESIGN.md §5): five single-package (cube immutability, map order in
# output, epsilon float comparisons, surfaced errors, unclosed response
# bodies) and three driven by cross-package facts (locks held across
# blocking calls, goroutine leaks, context plumbing). What vet (copylocks)
# or the byte-exact tests already catch has no analyzer. The short fuzz
# pass (scripts/fuzz.sh, the one list of targets) keeps the text parsers
# panic-free on garbage, the cell-answer writer byte-equal to
# encoding/json, the cell comparator equal to the decimal-key order
# snapshots store cells in, the one-walk flowgraph similarity bit-equal
# to its two-walk reference and the blocked support counter equal to its
# recursive reference.
# The race run also carries the byte-identity contracts, every one checked
# through internal/oracle (DESIGN.md "Contracts"): ApplyDelta + Save must be
# byte-identical to a full rebuild over the union database at random split
# points, and the warm re-mine to the one that starts from a dropped
# condition cache.
set -euo pipefail
cd "$(dirname "$0")/.."

# run_matching PATTERN ARGS... is go test ARGS -run PATTERN -v, printing
# only the package lines, that also fails when any |-separated alternative
# of PATTERN ran no test: go test itself passes a -run that matches nothing
# ("[no tests to run]"), so a renamed test would turn the targeted run into
# a silent no-op. A / in an alternative matches across subtest levels, as
# -run does.
run_matching() {
  local pattern=$1 out alt
  shift
  out=$(go test "$@" -run "$pattern" -v 2>&1) || { printf '%s\n' "$out"; return 1; }
  printf '%s\n' "$out" | grep -E '^(ok|FAIL|---)' | grep -v -- '--- PASS' || true
  while IFS= read -r alt; do
    if ! printf '%s\n' "$out" | grep -Eq "^=== RUN +[^ ]*${alt//\//[^/ ]*/[^/ ]*}"; then
      echo "go test -run '$pattern' $*: no test matches '$alt'"
      return 1
    fi
  done < <(printf '%s\n' "$pattern" | tr '|' '\n')
}

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== orphan packages =="
# Every internal package must be imported by another package (tests of other
# packages count, which is how the test-support packages paperex, oracle and
# lint/linttest pass): one that is not is dead weight nothing exercises.
go list -f '{{.ImportPath}}|{{join .Imports " "}} {{join .TestImports " "}} {{join .XTestImports " "}}' ./... |
  awk -F'|' '{pkgs[$1]; n = split($2, imp, " "); for (i = 1; i <= n; i++) if (imp[i] != $1) used[imp[i]]}
    END {for (p in pkgs) if (p ~ /\/internal\// && !(p in used)) {print "orphan package: " p; bad = 1}; exit bad}'

echo "== fuzz target list =="
# scripts/fuzz.sh is the one list of fuzz targets: a func Fuzz... it does not
# run would only ever see its seed corpus.
missing=$(grep -rhoE --include='*_test.go' --exclude-dir=.git --exclude-dir=.bench_build '^func Fuzz[A-Za-z0-9_]+' . |
  sed 's/^func //' | sort -u | while read -r f; do
    grep -q -- "-fuzz $f " scripts/fuzz.sh || echo "$f"
  done)
if [ -n "$missing" ]; then
  echo "fuzz targets missing from scripts/fuzz.sh:" $missing
  exit 1
fi

echo "== flowlint =="
# -stats prints each analyzer's finding count and wall time to stderr; on
# failure the trailing line names the offending analyzers.
go run ./cmd/flowlint -stats ./...

echo "== go test -race =="
# Includes the cluster round-trip suite (internal/cluster): split cubes
# served by live 2- and 3-shard fleets answered through the router, checked
# byte-for-byte against a single node, under the race detector.
go test -race ./...

echo "== generation isolation, lazy first touch, request deadlines, census, sharded counting (-race -count=10) =="
# Cube generations share cells and flowgraph nodes; a write that reaches a
# shared one is a rare interleaving with a reader, not a deterministic
# failure, so the isolation test runs ten times on top of the pass above —
# every variant, the lazy lineage's (plain+ledger+lazy: forks over one mapped
# snapshot, readers decoding through the shared cache) included. Beside it,
# the sub-δ ledger a first append derives across workers: what ApplyDelta
# keeps must equal a fresh derivation at every step of built, reloaded,
# lazy and forked chains, and a lazy cube must decode no cell for it.
run_matching 'TestGenerationIsolation|TestLedgerMaintainedEqualsDerived|TestLazyAppendDerivesLedgerWithoutDecoding' -race -count=10 ./internal/core
# Same reasoning for a lazy cube's first touches: readers racing for one cold
# cell share a single decode through the cache's single-flight, and Verify
# installs its directories in the cache the readers are building theirs in.
run_matching 'TestLazyConcurrentFirstTouch|TestLazyVerifyRacesReaders' -race -count=10 ./internal/core
# And for a request's deadline: a waiter abandons a response-cache flight
# while its owner computes on and stores the value, the handler answers 503
# from the connection's goroutine, and concurrent first census requests
# share one walk of the snapshot.
run_matching 'TestLRUWaiterDeadline|TestLRUSingleFlight' -race -count=10 ./internal/lru
run_matching 'TestRequestTimeout|TestExpiredDeadlineAnswers503|TestCensusConcurrentFirstRequests|TestCensusBuiltOncePerSnapshot' -race -count=10 ./internal/server
run_matching TestRouterRequestTimeout -race -count=10 ./internal/cluster
# And for support counting split across workers: the shards are private, so
# a write that escapes one is a race the detector must get many chances at,
# within one block (root children split among workers) and across blocks.
run_matching 'TestShardedMatchesSequentialAndAtomic|TestCountMatchesReferenceAtBlockEdges' -race -count=10 ./internal/itemset

echo "== micro-benchmarks (one iteration each) =="
# BenchmarkKLDivergence/Add (internal/stats) and BenchmarkSimilarity
# (internal/flowgraph) are what EXPERIMENTS.md quotes for the sorted-slice
# distributions, BenchmarkMineExceptions (internal/flowgraph) for the one
# exception miner, from scratch and restricted to ten new paths,
# BenchmarkLazyLookupCold (internal/core) for the
# cell-at-a-time lazy read (no allocation once resident), BenchmarkFoldSources
# for fold-source selection (allocations flat in the cells it scans) and
# BenchmarkLoad for the snapshot reader behind core.load_s (its
# LoadCubeLazy+Verify row is flowquery -load's open), BenchmarkBuild
# for Build through the one record router, and in
# flowquery's "-exceptions -tau 0.5" configuration for the build workload,
# BenchmarkJoin/TrieCount (internal/itemset, TrieCount within one counting
# block and across several) and
# BenchmarkMine (internal/mining) for the flat mining kernel — the one
# level-wise loop Build, Cubing and ingest all run — and BenchmarkApplyDelta
# (internal/core) for a ten-record append with exceptions and redundancy
# marking off and on, and to a loaded cube (its first append derives the
# sub-δ ledger), BenchmarkCommit (internal/server) for whole appends
# through the handler with exceptions off and on, BenchmarkRespond
# (internal/server) for rendering a cell answer; one iteration keeps them
# compiling and running.
go test ./internal/stats ./internal/flowgraph ./internal/core ./internal/itemset ./internal/mining ./internal/server -run '^$' -bench . -benchtime 1x

echo "== nommap fallback (lazy serving without mmap) =="
# The pread fallback behind the nommap build tag is what non-linux builds
# get: the one snapshot reader's file source there (Load reads a stream into
# memory either way). Its short views must catch truncation, a lying length
# and bytes after the end section as the mapping does, the lazy parity suite
# must hold, and so must appends over a lazily opened snapshot, whose base
# cells are copied out of fresh preads. flowquery -load opens snapshots
# lazily too, so its tests run over preads here.
go build -tags nommap ./...
run_matching 'Lazy|Load|LyingLength|Verify' -tags nommap ./internal/core ./cmd/flowquery
run_matching 'TestGenerationIsolation/lazy|TestApplyDeltaOnLoadedCube' -tags nommap ./internal/core

echo "== fuzz (10s per target) =="
./scripts/fuzz.sh 10s

echo "== lines of non-test Go per package (report only) =="
./scripts/loc.sh

echo "== exported surface only tests reach (report only) =="
./scripts/testonly.sh

echo "ok"
