#!/usr/bin/env bash
# Exported functions and methods declared in a non-test file under internal/
# or the root package that no non-test .go file references: surface only a
# test reaches. Report only, like loc.sh: scripts/check.sh prints it so a
# deletion PR can show the list is empty apart from the keep-list below.
#
# The match is by name, not by type: a method counts as referenced when any
# non-test file selects its name (x.Name), a function when another package
# writes pkg.Name or its own package names it outside the declaration.
# Comments do not count. That errs toward silence: two methods sharing a
# name cover for each other (core.(*Cube).Append hid behind every other
# .Append until PR 17 deleted it by hand). A type-checked pass (non-test
# uses keyed by package, receiver and name; PR 24 ran one by hand) found
# fourteen more hiding that way: flowgraph.(*Graph).Level and .Nodes,
# hierarchy.(*Cut).Hierarchy, ingest.(*WAL).Path, pathdb.Path.Equal and
# .Clone, pathdb.(*Store).Len, stats.(*Multinomial).Support,
# transact.(*Symbols).Schema and .Kind and the constant
# transact.cutsIncomparable are gone — their tests read the remaining API
# (slices.Equal, len(Committed()), len(Outcomes()), IsStage) — while
# core.(*Cube).Validate, flowgraph.(*Graph).Validate behind it and
# mining.(*Result).Support stay as test oracles and are on the keep-list,
# where this script will report them should their namesakes ever go.
set -euo pipefail
cd "$(dirname "$0")/.."

# Declarations that stay although only tests reference them: a "# reason"
# line, then the "dir.Name"s it covers.
keep='
# what other packages'"'"' tests name items, itemsets, concepts and cells with
internal/itemset.Key internal/itemset.FromKey internal/hierarchy.NodesAtLevel
internal/transact.LookupDimValue internal/transact.LookupStage internal/transact.SetString internal/transact.Ancestors
# the oracle and fixtures of the append, ingest, cluster, olap and server tests: digest a cell, drop a cuboid, compress (paper 4.2)
internal/core.CellDigest internal/core.DropCuboid internal/core.Compress
# reference paths: the uncached re-mine and the unfiltered fold that the restricted re-miner and Answer are compared against
internal/core.DropCondCache internal/core.ReconstructCell
# integrity oracles: the lazy/eager, delta and fuzz suites validate every cube they produce; the mining tests ask a result for a set'"'"'s support
internal/core.Validate internal/flowgraph.Validate internal/mining.Support
# called by errors.Is/As, never by name
internal/core.Unwrap
# the importable API: its callers are outside the repository; the package doc and README name these
flowcube.ApplyDelta flowcube.LoadCube flowcube.LoadCubeLazy flowcube.NewSchema
flowcube.WithEpsilon flowcube.WithExceptions flowcube.WithMinSupport flowcube.WithTau
flowcube.AggregatePath flowcube.Divergence flowcube.Similarity flowcube.GenerateHierarchy flowcube.PlanCuboids
'

find . \( -name '.*' ! -name . -o -name testdata \) -prune -o \
  -name '*.go' ! -name '*_test.go' -print | sort |
  awk -v keep="$keep" '
    BEGIN {
      n = split(keep, rows, "\n")
      for (i = 1; i <= n; i++) {
        if (rows[i] ~ /^# /) { reason = substr(rows[i], 3); continue }
        m = split(rows[i], ids, " ")
        for (j = 1; j <= m; j++) why[ids[j]] = reason
      }
    }
    {
      file = $0
      dir = file; sub(/^\.\//, "", dir); sub(/\/?[^\/]*$/, "", dir); if (dir == "") dir = "."
      # internal/paperex, internal/oracle and internal/lint/linttest exist to
      # be imported by tests (check.sh passes them through its orphan-package
      # gate likewise).
      product = (dir == "." || dir ~ /^internal\//) && dir != "internal/paperex" && dir != "internal/oracle" && dir != "internal/lint/linttest"
      while ((getline line < file) > 0) {
        sub(/\/\/.*$/, "", line)
        if (line ~ /^package /) { split(line, w, " "); pkg[dir] = w[2]; continue }
        if (line ~ /^func (\([^)]*\) )?[A-Z][A-Za-z0-9_]*[(\[]/) {
          method = (line ~ /^func \(/)
          name = line
          sub(/^func (\([^)]*\) )?/, "", name); sub(/[(\[].*$/, "", name)
          if (product) { nd++; ddir[nd] = dir; dname[nd] = name; dmethod[nd] = method }
          # The declared name is not a reference to itself.
          sub(/^func \([^)]*\) /, "func ", line); sub(/^func [A-Za-z0-9_]*/, "func ", line)
        }
        gsub(/[^A-Za-z0-9_.]/, " ", line)
        nf = split(line, f, " ")
        for (i = 1; i <= nf; i++) {
          ns = split(f[i], seg, ".")
          if (seg[1] != "") bare[dir SUBSEP seg[1]] = 1
          for (j = 2; j <= ns; j++) { dotted[seg[j]] = 1; qualified[seg[j-1] "." seg[j]] = 1 }
        }
      }
      close(file)
    }
    END {
      for (i = 1; i <= nd; i++) {
        d = ddir[i]; name = dname[i]
        if (dmethod[i] ? (name in dotted) : ((pkg[d] "." name) in qualified || (d SUBSEP name) in bare)) continue
        id = (d == "." ? pkg[d] : d) "." name
        if (id in why) printf "kept  %s — %s\n", id, why[id]
        else printf "ORPHAN %s\n", id
      }
    }' | sort -u
