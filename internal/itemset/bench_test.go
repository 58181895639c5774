package itemset_test

import (
	"fmt"
	"math/rand"
	"testing"

	"flowcube/internal/itemset"
	"flowcube/internal/transact"
)

// benchWorkload builds a counting workload shaped like a real Apriori level:
// a few thousand length-k candidates drawn from a skewed item domain, and a
// database of sorted transactions.
func benchWorkload(k int) (cands [][]transact.Item, txs []transact.Transaction) {
	rng := rand.New(rand.NewSource(int64(k)))
	domain := 120
	seen := map[string]bool{}
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
	return cands, txs
}

func sortItems(s []transact.Item) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func newBenchTrie(cands [][]transact.Item) *itemset.Trie {
	tr := itemset.NewTrie()
	for _, c := range cands {
		tr.Insert(c)
	}
	return tr
}

// BenchmarkTrieCount compares the counting variants on identical workloads:
// the sequential iterative walk and the sharded per-worker-buffer parallel
// walk.
func BenchmarkTrieCount(b *testing.B) {
	for _, k := range []int{2, 3, 4} {
		cands, txs := benchWorkload(k)
		b.Run(fmt.Sprintf("k=%d/seq", k), func(b *testing.B) {
			tr := newBenchTrie(cands)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, tx := range txs {
					tr.Count(tx)
				}
			}
		})
		b.Run(fmt.Sprintf("k=%d/sharded-8", k), func(b *testing.B) {
			tr := newBenchTrie(cands)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.CountParallel(txs, 8)
			}
		})
	}
}
