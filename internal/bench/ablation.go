package bench

import (
	"fmt"
	"io"
	"time"

	"flowcube/internal/core"
	"flowcube/internal/datagen"
	"flowcube/internal/flowgraph"
	"flowcube/internal/hierarchy"
	"flowcube/internal/itemset"
	"flowcube/internal/mining"
	"flowcube/internal/pathdb"
	"flowcube/internal/transact"
)

// Ablation experiments for the design choices DESIGN.md calls out (A1–A5).
// These have no counterpart figure in the paper; they quantify the
// individual contributions of its optimizations.

// AblationRow is one configuration's outcome.
type AblationRow struct {
	Name       string
	Seconds    float64
	Candidates int // total candidates counted (A1, A3)
	Cells      int // retained cells (A4, A5)
	Aborted    bool
}

// WriteRows renders ablation rows as an aligned table.
func WriteRows(w io.Writer, title string, rows []AblationRow) {
	fmt.Fprintf(w, "# Ablation — %s\n", title)
	fmt.Fprintf(w, "%-24s %10s %12s %8s\n", "variant", "seconds", "candidates", "cells")
	for _, r := range rows {
		sec := fmt.Sprintf("%.3f", r.Seconds)
		if r.Aborted {
			sec = "aborted"
		}
		fmt.Fprintf(w, "%-24s %10s %12d %8d\n", r.Name, sec, r.Candidates, r.Cells)
	}
}

// AblationPruning (A1) toggles Shared's pruning rules one at a time and
// reports runtime and candidates counted, isolating where the Figure-11
// reduction comes from.
func AblationPruning(o Options) []AblationRow {
	cfg := o.baseConfig()
	cfg.NumPaths = int(100_000 * o.scale())
	ds := datagen.MustGenerate(cfg)
	syms := transact.MustNewSymbols(ds.Schema, ds.DefaultPlan())
	txs := syms.Encode(ds.DB)

	variants := []struct {
		name string
		opts mining.Options
	}{
		{"shared (all prunes)", mining.SharedOptions(0.01)},
		{"no precount", mining.Options{MinSupport: 0.01, PruneAncestor: true, PruneLink: true}},
		{"no linkability", mining.Options{MinSupport: 0.01, PruneAncestor: true, Precount: true}},
		{"no ancestor", mining.Options{MinSupport: 0.01, PruneLink: true, Precount: true}},
		{"basic (no prunes)", mining.BasicOptions(0.01)},
	}
	minCount := o.minCount(0.01, ds.DB.Len())
	var rows []AblationRow
	for _, v := range variants {
		v.opts.MinCount = minCount
		v.opts.CandidateLimit = o.candidateLimit()
		start := time.Now()
		res, err := mining.Mine(syms, txs, v.opts)
		if err != nil {
			panic(fmt.Sprintf("bench: ablation mining failed: %v", err))
		}
		total := 0
		for _, l := range res.Levels {
			total += l.Counted
		}
		rows = append(rows, AblationRow{
			Name: v.name, Seconds: time.Since(start).Seconds(),
			Candidates: total, Aborted: res.Aborted,
		})
		o.progress("ablation-pruning %s: %.2fs %d candidates", v.name, rows[len(rows)-1].Seconds, total)
	}
	return rows
}

// AblationMerge (A2) measures Lemma 4.2 in practice: building a parent
// cell's flowgraph distributions by merging K child flowgraphs versus
// rescanning all underlying paths.
func AblationMerge(o Options) []AblationRow {
	cfg := o.baseConfig()
	cfg.NumPaths = int(200_000 * o.scale())
	ds := datagen.MustGenerate(cfg)
	level := pathdb.PathLevel{
		Cut:  hierarchy.LevelCut(ds.Schema.Location, ds.Schema.Location.Depth()),
		Time: pathdb.TimeBase,
	}

	// Partition by the first dimension's top-level concept — the children
	// of one parent cell in the item lattice.
	h := ds.Schema.Dims[0]
	parts := map[hierarchy.NodeID][]pathdb.Path{}
	var all []pathdb.Path
	for _, r := range ds.DB.Records {
		k := h.AncestorAt(r.Dims[0], 1)
		parts[k] = append(parts[k], r.Path)
		all = append(all, r.Path)
	}
	children := make([]*flowgraph.Graph, 0, len(parts))
	for _, paths := range parts {
		children = append(children, flowgraph.Build(ds.Schema.Location, level, paths, nil))
	}

	start := time.Now()
	merged, err := flowgraph.Fold(children)
	if err != nil {
		panic(err)
	}
	mergeSec := time.Since(start).Seconds()

	start = time.Now()
	rescan := flowgraph.Build(ds.Schema.Location, level, all, nil)
	rescanSec := time.Since(start).Seconds()

	if merged.Paths() != rescan.Paths() {
		panic("bench: merge ablation produced diverging graphs")
	}
	o.progress("ablation-merge: merge %.4fs rescan %.4fs", mergeSec, rescanSec)
	return []AblationRow{
		{Name: "algebraic merge", Seconds: mergeSec},
		{Name: "rescan paths", Seconds: rescanSec},
	}
}

// AblationCounting (A3) compares the candidate-trie support counting with
// the naive per-candidate subset test over the same length-2 candidates.
func AblationCounting(o Options) []AblationRow {
	cfg := o.baseConfig()
	cfg.NumPaths = int(20_000 * o.scale())
	ds := datagen.MustGenerate(cfg)
	syms := transact.MustNewSymbols(ds.Schema, ds.DefaultPlan())
	txs := syms.Encode(ds.DB)

	// Recreate L1 and C2 the way the miner does.
	counts := map[transact.Item]int64{}
	for _, tx := range txs {
		for _, it := range tx {
			counts[it]++
		}
	}
	minCount := o.minCount(0.01, len(txs))
	l1 := itemset.Level{K: 1}
	for it, n := range counts {
		if n >= minCount {
			l1.Append([]transact.Item{it}, n)
		}
	}
	l1.Sort()
	cands := itemset.Join(l1, 1)
	kept := itemset.Level{K: 2}
	for i := 0; i < cands.Len(); i++ {
		if c := cands.Set(i); !syms.HasAncestorPair(c) && syms.AllLinkable(c) {
			kept.Items = append(kept.Items, c...)
		}
	}

	start := time.Now()
	trie := itemset.NewTrie(kept)
	for _, tx := range txs {
		trie.Count(tx)
	}
	trieSec := time.Since(start).Seconds()

	start = time.Now()
	naive := make([]int64, kept.Len())
	for _, tx := range txs {
		present := make(map[transact.Item]bool, len(tx))
		for _, it := range tx {
			present[it] = true
		}
		for i := range naive {
			if c := kept.Set(i); present[c[0]] && present[c[1]] {
				naive[i]++
			}
		}
	}
	naiveSec := time.Since(start).Seconds()

	// Sanity: both counters agree.
	for i, n := range trie.Counts() {
		if n != naive[i] {
			panic("bench: trie and naive counts disagree")
		}
	}
	o.progress("ablation-counting: trie %.4fs naive %.4fs over %d candidates", trieSec, naiveSec, kept.Len())
	return []AblationRow{
		{Name: "candidate trie", Seconds: trieSec, Candidates: kept.Len()},
		{Name: "naive subset test", Seconds: naiveSec, Candidates: kept.Len()},
	}
}

// AblationRedundancy (A4) sweeps the similarity threshold τ and reports the
// cells a non-redundant flowcube retains.
func AblationRedundancy(o Options) []AblationRow {
	cube := smallCube(o)
	total := cube.NumCells()
	var rows []AblationRow
	for _, tau := range []float64{0.2, 0.4, 0.6, 0.8, 0.95} {
		start := time.Now()
		redundant := cube.MarkRedundancy(tau)
		rows = append(rows, AblationRow{
			Name:    fmt.Sprintf("tau=%.2f", tau),
			Seconds: time.Since(start).Seconds(),
			Cells:   total - redundant,
		})
		o.progress("ablation-redundancy tau=%.2f: %d/%d cells retained", tau, total-redundant, total)
	}
	return rows
}

// AblationIceberg (A5) sweeps the iceberg threshold δ and reports
// materialized cells.
func AblationIceberg(o Options) []AblationRow {
	var rows []AblationRow
	for _, sup := range []float64{0.002, 0.005, 0.01, 0.02, 0.05} {
		start := time.Now()
		cube := buildCube(o, sup)
		rows = append(rows, AblationRow{
			Name:    fmt.Sprintf("delta=%.3f", sup),
			Seconds: time.Since(start).Seconds(),
			Cells:   cube.NumCells(),
		})
		o.progress("ablation-iceberg δ=%.3f: %d cells", sup, cube.NumCells())
	}
	return rows
}

func smallCube(o Options) *core.Cube { return buildCube(o, 0.01) }

func buildCube(o Options, minSupport float64) *core.Cube {
	cfg := o.baseConfig()
	cfg.NumPaths = int(20_000 * o.scale())
	cfg.NumDims = 2
	ds := datagen.MustGenerate(cfg)
	cube, err := core.Build(ds.DB, core.Config{
		MinCount: o.minCount(minSupport, ds.DB.Len()),
		Plan:     ds.DefaultPlan(),
	})
	if err != nil {
		panic(fmt.Sprintf("bench: cube build failed: %v", err))
	}
	return cube
}

// AblationParallel (A7) scales the Shared miner's counting across workers.
func AblationParallel(o Options) []AblationRow {
	cfg := o.baseConfig()
	cfg.NumPaths = int(100_000 * o.scale())
	ds := datagen.MustGenerate(cfg)
	syms := transact.MustNewSymbols(ds.Schema, ds.DefaultPlan())
	txs := syms.Encode(ds.DB)
	minCount := o.minCount(0.01, ds.DB.Len())

	var rows []AblationRow
	var base int
	for _, workers := range []int{1, 2, 4, 8} {
		opts := mining.SharedOptions(0.01)
		opts.MinCount = minCount
		opts.Workers = workers
		start := time.Now()
		res, err := mining.Mine(syms, txs, opts)
		if err != nil {
			panic(fmt.Sprintf("bench: parallel ablation failed: %v", err))
		}
		n := res.NumFrequent()
		if base == 0 {
			base = n
		} else if base != n {
			panic("bench: parallel run changed the result")
		}
		rows = append(rows, AblationRow{
			Name: fmt.Sprintf("workers=%d", workers), Seconds: time.Since(start).Seconds(), Candidates: n,
		})
		o.progress("ablation-parallel workers=%d: %.2fs", workers, rows[len(rows)-1].Seconds)
	}
	return rows
}
