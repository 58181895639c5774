// Package mining implements the paper's Algorithm 1 ("Shared") — the
// simultaneous, multi-level mining of frequent cells and frequent path
// segments over the transformed transaction database — together with the
// "Basic" baseline used in the evaluation, which is the same Apriori loop
// with every candidate-pruning optimization disabled.
package mining

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"flowcube/internal/itemset"
	"flowcube/internal/transact"
)

// Options configures one mining run. Shared and Basic presets are provided
// by SharedOptions and BasicOptions; individual toggles support the
// ablation study.
type Options struct {
	// MinSupport is the relative minimum support δ in (0,1]. Ignored when
	// MinCount > 0.
	MinSupport float64
	// MinCount is the absolute minimum support; overrides MinSupport.
	MinCount int64

	// PruneAncestor removes candidates containing an item together with one
	// of its ancestors (optimization 4 of §5).
	PruneAncestor bool
	// PruneLink removes candidates containing two stages that can never
	// appear in the same path (optimization 2 of §5).
	PruneLink bool
	// Precount counts high-abstraction-level pairs during the first scan
	// and removes length-2 candidates whose pre-counted image pair is
	// infrequent (optimization 1 of §5).
	Precount bool

	// Workers shards the first scan, support counting and the candidate join
	// of large levels across goroutines. Support counting hands out units of
	// one transaction block and one range of the candidate trie's root
	// children, splitting the root's children only when there are too few
	// blocks to go round. The result is identical to the sequential run; 0
	// or 1 keeps everything sequential.
	Workers int
	// CandidateLimit aborts the run when the number of candidates of one
	// length exceeds it; 0 means unlimited. The paper reports Basic
	// exceeding memory on larger inputs — this is the controlled analogue.
	CandidateLimit int
}

// SharedOptions returns the Shared algorithm's configuration at the given
// minimum support.
func SharedOptions(minSupport float64) Options {
	return Options{
		MinSupport:    minSupport,
		PruneAncestor: true,
		PruneLink:     true,
		Precount:      true,
	}
}

// BasicOptions returns the Basic baseline's configuration: no candidate
// pruning beyond the Apriori subset test.
func BasicOptions(minSupport float64) Options {
	return Options{MinSupport: minSupport}
}

// LevelStats records per-length work for the pruning-power analysis
// (paper Figure 11).
type LevelStats struct {
	Length    int
	Generated int // candidates produced by the Apriori join
	Pruned    int // removed by Shared's optimizations before counting
	Counted   int // candidates whose support was measured
	Frequent  int
}

// Stats is what a mining run reports about itself beside its itemsets.
type Stats struct {
	Levels []LevelStats // per-length candidate statistics
	Scans  int          // passes over the transaction database
}

// MaxLen reports the longest frequent pattern length found.
func (s *Stats) MaxLen() int {
	for k := len(s.Levels); k > 0; k-- {
		if s.Levels[k-1].Frequent > 0 {
			return s.Levels[k-1].Length
		}
	}
	return 0
}

// Result is the output of one mining run.
type Result struct {
	// ByLength[k-1] holds the frequent itemsets of length k, sorted.
	ByLength []itemset.Level
	Stats
	// MinCount is the absolute support threshold used.
	MinCount int64
	// Aborted is true when CandidateLimit stopped the run early.
	Aborted bool
}

// NumFrequent reports the number of frequent itemsets across lengths.
func (r *Result) NumFrequent() int {
	n := 0
	for _, l := range r.ByLength {
		n += l.Len()
	}
	return n
}

// Support looks up the support count of a sorted itemset; ok is false when
// the set is not frequent.
func (r *Result) Support(set []transact.Item) (int64, bool) {
	if len(set) == 0 || len(set) > len(r.ByLength) {
		return 0, false
	}
	return r.ByLength[len(set)-1].Support(set)
}

// ResolveMinCount converts options to an absolute support threshold over n
// transactions. Minimum support must be positive: a zero threshold would
// ask for every subset of every transaction.
func ResolveMinCount(opts Options, n int) (int64, error) {
	if opts.MinCount > 0 {
		return opts.MinCount, nil
	}
	if opts.MinSupport <= 0 || opts.MinSupport > 1 {
		return 0, fmt.Errorf("mining: minimum support must be in (0,1], got %g", opts.MinSupport)
	}
	c := int64(math.Ceil(opts.MinSupport * float64(n)))
	if c < 1 {
		c = 1
	}
	return c, nil
}

// maxDensePairs caps the dense pair matrix at 1M entries (8 MiB per
// worker); beyond that the precount falls back to a sparse map. A variable
// so tests can shrink it to exercise the sparse path.
var maxDensePairs = 1 << 20

// PairCounts holds the pre-counted supports of unordered pairs of
// top-abstraction-level items from the first scan. The counts live either
// in a dense T×T matrix over the T top-level items (the common case —
// cache-friendly, allocation-free increments) or, when T² exceeds
// maxDensePairs, in a sparse map keyed by packed item pair.
type PairCounts struct {
	// topIdx maps every interned item to its dense top-level index, or -1
	// when the item is not at the top abstraction level. Shared (read-only)
	// across per-worker shards.
	topIdx []int32
	nTop   int

	dense  []int64
	sparse map[int64]int64
}

// newPairCounts builds the shared index over the symbol table and the
// zeroed count store.
func newPairCounts(syms *transact.Symbols) *PairCounts {
	p := &PairCounts{topIdx: make([]int32, syms.Len())}
	for i := range p.topIdx {
		if syms.IsTopLevel(transact.Item(i)) {
			p.topIdx[i] = int32(p.nTop)
			p.nTop++
		} else {
			p.topIdx[i] = -1
		}
	}
	p.alloc()
	return p
}

func (p *PairCounts) alloc() {
	if p.nTop*p.nTop <= maxDensePairs {
		p.dense = make([]int64, p.nTop*p.nTop)
	} else {
		p.sparse = make(map[int64]int64)
	}
}

// emptyShard returns a zeroed store sharing the read-only top-level index,
// for one scan worker.
func (p *PairCounts) emptyShard() *PairCounts {
	s := &PairCounts{topIdx: p.topIdx, nTop: p.nTop}
	s.alloc()
	return s
}

// merge folds a worker shard into p. Integer addition is exact and
// commutative, so the merged counts match the sequential scan regardless of
// worker scheduling.
func (p *PairCounts) merge(s *PairCounts) {
	if p.dense != nil {
		for i, v := range s.dense {
			if v != 0 {
				p.dense[i] += v
			}
		}
		return
	}
	for k, v := range s.sparse {
		p.sparse[k] += v
	}
}

// Get reports the pre-counted support of the unordered pair {a, b}; zero
// when either item is not top-level or the pair never co-occurred.
func (p *PairCounts) Get(a, b transact.Item) int64 {
	if p == nil {
		return 0
	}
	if p.dense != nil {
		ia, ib := p.topIdx[a], p.topIdx[b]
		if ia < 0 || ib < 0 {
			return 0
		}
		if ia > ib {
			ia, ib = ib, ia
		}
		return p.dense[int(ia)*p.nTop+int(ib)]
	}
	return p.sparse[pairKey(a, b)]
}

// FirstScan performs the first database pass: per-item supports in a dense
// slice indexed by transact.Item (items are small dense ints, so the scan's
// inner loop is a slice increment, not a map probe), plus — when precount
// is set — the supports of pairs of top-abstraction-level items. With
// workers > 1 the transactions are sharded into contiguous chunks and the
// per-worker counters merged; integer merges are exact, so the result is
// identical to the sequential scan. Exported for the equivalence tests; Mine
// is the production caller.
func FirstScan(syms *transact.Symbols, txs []transact.Transaction, precount bool, workers int) ([]int64, *PairCounts) {
	var master *PairCounts
	if precount {
		master = newPairCounts(syms)
	}
	scan := func(items []int64, pairs *PairCounts, part []transact.Transaction) {
		var topBuf []int32
		for _, tx := range part {
			for _, it := range tx {
				items[it]++
			}
			if pairs == nil {
				continue
			}
			// Transactions are item-sorted and dense top indexes are
			// assigned in item order, so topBuf stays ascending and the
			// dense writes hit the upper triangle Get reads.
			topBuf = topBuf[:0]
			if pairs.dense != nil {
				for _, it := range tx {
					if idx := pairs.topIdx[it]; idx >= 0 {
						topBuf = append(topBuf, idx)
					}
				}
				for i := 0; i < len(topBuf); i++ {
					row := int(topBuf[i]) * pairs.nTop
					for j := i + 1; j < len(topBuf); j++ {
						pairs.dense[row+int(topBuf[j])]++
					}
				}
				continue
			}
			for _, it := range tx {
				if pairs.topIdx[it] >= 0 {
					topBuf = append(topBuf, int32(it))
				}
			}
			for i := 0; i < len(topBuf); i++ {
				for j := i + 1; j < len(topBuf); j++ {
					pairs.sparse[pairKey(transact.Item(topBuf[i]), transact.Item(topBuf[j]))]++
				}
			}
		}
	}
	if workers <= 1 || len(txs) < 2*workers {
		items := make([]int64, syms.Len())
		scan(items, master, txs)
		return items, master
	}
	itemShards := make([][]int64, workers)
	pairShards := make([]*PairCounts, workers)
	var wg sync.WaitGroup
	chunk := (len(txs) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= len(txs) {
			break
		}
		hi := lo + chunk
		if hi > len(txs) {
			hi = len(txs)
		}
		wg.Add(1)
		go func(w int, part []transact.Transaction) {
			defer wg.Done()
			items := make([]int64, syms.Len())
			var pairs *PairCounts
			if master != nil {
				pairs = master.emptyShard()
			}
			scan(items, pairs, part)
			itemShards[w], pairShards[w] = items, pairs
		}(w, txs[lo:hi])
	}
	wg.Wait()
	items := make([]int64, syms.Len())
	for w, shard := range itemShards {
		if shard == nil {
			continue
		}
		for i, v := range shard {
			if v != 0 {
				items[i] += v
			}
		}
		if master != nil {
			master.merge(pairShards[w])
		}
	}
	return items, master
}

// itemOccurrences counts the items of every transaction.
func itemOccurrences(txs []transact.Transaction) int {
	n := 0
	for _, tx := range txs {
		n += len(tx)
	}
	return n
}

// pairKey packs an unordered item pair.
func pairKey(a, b transact.Item) int64 {
	if a > b {
		a, b = b, a
	}
	return int64(a)<<32 | int64(uint32(b))
}

// Mine runs the level-wise loop of Algorithm 1 over the encoded
// transactions. The symbol table must be the one that produced them.
func Mine(syms *transact.Symbols, txs []transact.Transaction, opts Options) (*Result, error) {
	minCount, err := ResolveMinCount(opts, len(txs))
	if err != nil {
		return nil, err
	}
	res := &Result{MinCount: minCount}

	// Scan 1: supports of single items, plus — under Precount — supports
	// of pairs of high-abstraction-level items (paper: "collect frequent
	// items of length 1 into L1, and pre-count patterns of length > 1 at
	// high abstraction levels into P1").
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	// Only items that occur in the scanned transactions count as
	// generated, and the level is collected in item order, so sorted.
	l1 := itemset.Level{K: 1}
	distinct := 0
	collect := func(it transact.Item, n int64) {
		distinct++
		if n >= minCount {
			l1.Items = append(l1.Items, it)
			l1.Counts = append(l1.Counts, n)
		}
	}
	var pairCounts *PairCounts
	if occurrences := itemOccurrences(txs); opts.Precount || occurrences >= syms.Len() {
		// The dense counter covers every interned item.
		var itemCounts []int64
		itemCounts, pairCounts = FirstScan(syms, txs, opts.Precount, workers)
		for it, n := range itemCounts {
			if n > 0 {
				collect(transact.Item(it), n)
			}
		}
	} else {
		// Fewer item occurrences than interned items — a cell's projected
		// transactions, say: count runs of the sorted occurrences instead of
		// allocating a counter per interned item.
		all := make([]transact.Item, 0, occurrences)
		for _, tx := range txs {
			all = append(all, tx...)
		}
		slices.Sort(all)
		for i := 0; i < len(all); {
			j := i + 1
			for j < len(all) && all[j] == all[i] {
				j++
			}
			collect(all[i], int64(j-i))
			i = j
		}
	}
	res.Scans = 1
	res.ByLength = append(res.ByLength, l1)
	res.Levels = append(res.Levels, LevelStats{
		Length: 1, Generated: distinct, Counted: distinct, Frequent: l1.Len(),
	})

	prev := l1
	for k := 2; prev.Len() > 0; k++ {
		cands := itemset.Join(prev, workers)
		stats := LevelStats{Length: k, Generated: cands.Len()}

		// All three rules judge a pair of items, and Join emits a candidate
		// only when every subset of it was counted frequent: a pair that a
		// rule rejects is never counted, so no candidate longer than two can
		// contain one, and the rules have nothing left to do after k = 2.
		if k == 2 {
			kept := cands.Items[:0]
			for i := 0; i < len(cands.Items); i += 2 {
				c := cands.Items[i : i+2]
				if opts.PruneAncestor && syms.HasAncestorPair(c) {
					continue
				}
				if opts.PruneLink && !syms.AllLinkable(c) {
					continue
				}
				if opts.Precount && precountPrunes(syms, pairCounts, c[0], c[1], minCount) {
					continue
				}
				kept = append(kept, c...)
			}
			cands.Items = kept
		}
		stats.Counted = cands.Len()
		stats.Pruned = stats.Generated - stats.Counted

		if opts.CandidateLimit > 0 && stats.Counted > opts.CandidateLimit {
			res.Levels = append(res.Levels, stats)
			res.Aborted = true
			return res, nil
		}
		if stats.Counted == 0 {
			res.Levels = append(res.Levels, stats)
			break
		}

		trie := itemset.NewTrie(cands)
		trie.Count(txs, workers)
		res.Scans++

		lk := trie.Frequent(minCount)
		stats.Frequent = lk.Len()
		res.Levels = append(res.Levels, stats)
		res.ByLength = append(res.ByLength, lk)
		prev = lk
	}
	return res, nil
}

// precountPrunes reports whether the pre-counted image pair of {a,b} proves
// the candidate infrequent. The image of an item is itself when it is
// already at the top abstraction level, its derivable top-level
// generalization otherwise; when either image is unknown the candidate
// cannot be pruned.
func precountPrunes(syms *transact.Symbols, pairCounts *PairCounts, a, b transact.Item, minCount int64) bool {
	ia, ib := syms.PrecountImage(a), syms.PrecountImage(b)
	if ia < 0 || ib < 0 || ia == ib {
		return false
	}
	return pairCounts.Get(ia, ib) < minCount
}
