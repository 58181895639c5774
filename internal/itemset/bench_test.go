package itemset_test

import (
	"fmt"
	"math/rand"
	"testing"

	"flowcube/internal/datagen"
	"flowcube/internal/itemset"
	"flowcube/internal/mining"
	"flowcube/internal/transact"
)

// benchWorkload builds a counting workload shaped like a real Apriori level:
// a few thousand length-k candidates drawn from a skewed item domain, and a
// database of sorted transactions.
func benchWorkload(k int) (itemset.Level, []transact.Transaction) {
	rng := rand.New(rand.NewSource(int64(k)))
	domain := 120
	seen := map[string]bool{}
	var cands [][]transact.Item
	var txs []transact.Transaction
	for len(cands) < 4000 {
		set := make([]transact.Item, 0, k)
		for len(set) < k {
			// Square the draw to skew toward low items, like real frequent
			// itemsets concentrate on frequent symbols.
			v := transact.Item(rng.Intn(domain) * rng.Intn(domain) / domain)
			dup := false
			for _, have := range set {
				if have == v {
					dup = true
				}
			}
			if !dup {
				set = append(set, v)
			}
		}
		sortItems(set)
		key := itemset.Key(set)
		if !seen[key] {
			seen[key] = true
			cands = append(cands, set)
		}
	}
	for i := 0; i < 4000; i++ {
		var tx transact.Transaction
		for v := 0; v < domain; v++ {
			if rng.Intn(domain/8) < 8 {
				tx = append(tx, transact.Item(v))
			}
		}
		txs = append(txs, tx)
	}
	return levelOf(k, cands...), txs
}

func sortItems(s []transact.Item) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// BenchmarkTrieCount compares the counting variants on identical workloads:
// the sequential iterative walk and the sharded per-worker-buffer parallel
// walk.
func BenchmarkTrieCount(b *testing.B) {
	for _, k := range []int{2, 3, 4} {
		cands, txs := benchWorkload(k)
		b.Run(fmt.Sprintf("k=%d/seq", k), func(b *testing.B) {
			tr := itemset.NewTrie(cands)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, tx := range txs {
					tr.Count(tx)
				}
			}
		})
		b.Run(fmt.Sprintf("k=%d/sharded-8", k), func(b *testing.B) {
			tr := itemset.NewTrie(cands)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.CountParallel(txs, 8)
			}
		})
	}
}

// BenchmarkJoin joins levels 2, 4 and 6 of a Shared run over the benchmark's
// build dataset shape (three dimensions, 2000 paths, δ = 1 %): the pair
// level with its few wide prefix groups, and the deep levels where most sets
// are and the subset test does the work.
func BenchmarkJoin(b *testing.B) {
	cfg := datagen.Default()
	cfg.NumDims, cfg.NumPaths = 3, 2000
	ds := datagen.MustGenerate(cfg)
	syms := transact.MustNewSymbols(ds.Schema, ds.DefaultPlan())
	res, err := mining.Mine(syms, syms.Encode(ds.DB), mining.SharedOptions(0.01))
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{2, 4, 6} {
		prev := res.ByLength[k-1]
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("k=%d/sets=%d/workers=%d", k, prev.Len(), workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					joinSink = itemset.Join(prev, workers)
				}
			})
		}
	}
}

var joinSink itemset.Level
