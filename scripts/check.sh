#!/usr/bin/env bash
# Repo verify path: static analysis plus the full test suite under the race
# detector. The race run is what keeps the concurrent serving layer
# (internal/server, cmd/flowserve) honest — snapshot hot-reload, the
# single-flight response cache and graceful shutdown are all exercised by
# tests that hammer the server from many goroutines. flowlint layers the
# project-specific contracts on top — nine analyzers, each kept because a
# seeded bug of a class it reports got past go vet and this race run
# (DESIGN.md §5): six single-package (cube immutability, map order in
# output, locks held across I/O, epsilon float comparisons, surfaced errors,
# unclosed response bodies) and three driven by cross-package facts
# (goroutine leaks, context plumbing, locks held across interprocedurally
# blocking calls). What vet (copylocks) or the byte-exact tests already catch
# has no analyzer. The short fuzz pass keeps the text parsers panic-free on
# garbage, the cell-answer writer byte-equal to encoding/json and the cell
# comparator equal to the decimal-key order snapshots store cells in.
# The race run also carries the delta-equivalence property tests
# (internal/incr: ApplyDelta + Save must be byte-identical to a full
# rebuild over the union database at random split points, and the warm
# re-mine to the one that starts from a dropped condition cache).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== orphan packages =="
# Every internal package must be imported by another package (tests of other
# packages count, which is how the test-support packages paperex and
# lint/linttest pass): one that is not is dead weight nothing exercises.
go list -f '{{.ImportPath}}|{{join .Imports " "}} {{join .TestImports " "}} {{join .XTestImports " "}}' ./... |
  awk -F'|' '{pkgs[$1]; n = split($2, imp, " "); for (i = 1; i <= n; i++) if (imp[i] != $1) used[imp[i]]}
    END {for (p in pkgs) if (p ~ /\/internal\// && !(p in used)) {print "orphan package: " p; bad = 1}; exit bad}'

echo "== flowlint =="
# -stats prints each analyzer's finding count and wall time to stderr; on
# failure the trailing line names the offending analyzers.
go run ./cmd/flowlint -stats ./...

echo "== go test -race =="
# Includes the cluster round-trip suite (internal/cluster): split cubes
# served by live 2- and 3-shard fleets answered through the router, checked
# byte-for-byte against a single node, under the race detector.
go test -race ./...

echo "== generation isolation, lazy first touch (-race -count=10) =="
# Cube generations share cells and flowgraph nodes; a write that reaches a
# shared one is a rare interleaving with a reader, not a deterministic
# failure, so the isolation test runs ten times on top of the pass above —
# every variant, the lazy lineage's (plain+ledger+lazy: forks over one mapped
# snapshot, readers decoding through the shared cache) included.
go test -race -count=10 ./internal/incr -run TestGenerationIsolation
# Same reasoning for a lazy cube's first touches: readers racing for one cold
# cell share a single decode through the cache's single-flight.
go test -race -count=10 ./internal/core -run TestLazyConcurrentFirstTouch

echo "== micro-benchmarks (one iteration each) =="
# BenchmarkKLDivergence/Add (internal/stats) and BenchmarkSimilarity
# (internal/flowgraph) are what EXPERIMENTS.md quotes for the sorted-slice
# distributions, BenchmarkMineExceptions (internal/flowgraph) for the one
# exception miner, from scratch and restricted to ten new paths,
# BenchmarkLazyLookupCold (internal/core) for the
# cell-at-a-time lazy read (no allocation once resident), BenchmarkFoldSources
# for fold-source selection (allocations flat in the cells it scans) and
# BenchmarkLoad for the snapshot reader behind core.load_s, BenchmarkBuild
# (ledger off and on) for Build through the one record router,
# BenchmarkJoin/TrieCount (internal/itemset) and
# BenchmarkMine (internal/mining) for the flat mining kernel — the one
# level-wise loop Build, Cubing and ingest all run — and BenchmarkApplyDelta
# (internal/incr) for a ten-record append with exceptions and redundancy
# marking off and on, BenchmarkCommit (internal/server) for whole appends
# through the handler with exceptions off and on, BenchmarkRespond
# (internal/server) for rendering a cell answer; one iteration keeps them
# compiling and running.
go test ./internal/stats ./internal/flowgraph ./internal/core ./internal/itemset ./internal/mining ./internal/incr ./internal/server -run '^$' -bench . -benchtime 1x

echo "== nommap fallback (lazy serving without mmap) =="
# The pread fallback behind the nommap build tag is what non-linux builds
# get: the one snapshot reader's file source there (Load reads a stream into
# memory either way). Its short views must catch truncation, a lying length
# and bytes after the end section as the mapping does, the lazy parity suite
# must hold, and so must appends over a lazily opened snapshot, whose base
# cells are copied out of fresh preads.
go build -tags nommap ./...
go test -tags nommap ./internal/core -run 'Lazy|Load|LyingLength'
go test -tags nommap ./internal/incr -run 'TestGenerationIsolation/lazy|TestApplyDeltaOnLoadedCube'

echo "== fuzz (10s per target) =="
go test ./internal/core -run '^$' -fuzz FuzzParseCellSpec -fuzztime 10s
go test ./internal/olap -run '^$' -fuzz FuzzParseQuery -fuzztime 10s
go test ./internal/core -run '^$' -fuzz FuzzLoadSnapshot -fuzztime 10s -fuzzminimizetime 10x
go test ./internal/core -run '^$' -fuzz FuzzCompareCells -fuzztime 10s
go test ./internal/pathdb -run '^$' -fuzz FuzzRead -fuzztime 10s
go test ./internal/incr -run '^$' -fuzz FuzzApplyDelta -fuzztime 10s
go test ./internal/ingest -run '^$' -fuzz FuzzWALReplay -fuzztime 10s
go test ./internal/itemset -run '^$' -fuzz FuzzJoinMatchesBruteForce -fuzztime 10s
go test ./internal/server -run '^$' -fuzz FuzzRenderMatchesReference -fuzztime 10s

echo "== lines of non-test Go per package (report only) =="
./scripts/loc.sh

echo "== exported surface only tests reach (report only) =="
./scripts/testonly.sh

echo "ok"
