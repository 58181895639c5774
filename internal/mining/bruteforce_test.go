package mining_test

import (
	"sort"
	"testing"

	"flowcube/internal/datagen"
	"flowcube/internal/itemset"
	"flowcube/internal/mining"
	"flowcube/internal/transact"
)

// bruteFrequent enumerates frequent itemsets by exhaustive depth-first
// search with support counting by scanning — the obviously-correct oracle.
func bruteFrequent(txs []transact.Transaction, minCount int64, maxLen int) map[string]int64 {
	// Universe of frequent single items first (anti-monotonicity makes the
	// DFS tractable).
	counts := map[transact.Item]int64{}
	for _, tx := range txs {
		for _, it := range tx {
			counts[it]++
		}
	}
	var items []transact.Item
	for it, n := range counts {
		if n >= minCount {
			items = append(items, it)
		}
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })

	support := func(set []transact.Item) int64 {
		var n int64
	outer:
		for _, tx := range txs {
			i := 0
			for _, want := range set {
				for i < len(tx) && tx[i] < want {
					i++
				}
				if i >= len(tx) || tx[i] != want {
					continue outer
				}
			}
			n++
		}
		return n
	}

	out := map[string]int64{}
	var rec func(start int, cur []transact.Item)
	rec = func(start int, cur []transact.Item) {
		for i := start; i < len(items); i++ {
			cand := append(cur, items[i])
			n := support(cand)
			if n < minCount {
				continue
			}
			out[itemset.Key(cand)] = n
			if maxLen == 0 || len(cand) < maxLen {
				rec(i+1, cand)
			}
		}
	}
	rec(0, nil)
	return out
}

// TestSharedMatchesBruteForce cross-checks the Shared miner against the
// exhaustive oracle on small random databases: Shared must find exactly
// the frequent itemsets that contain no item+ancestor pair (which it
// provably prunes as derivable), each with the exact support.
func TestSharedMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		cfg := datagen.Default()
		cfg.Seed = seed
		cfg.NumPaths = 60
		cfg.NumDims = 2
		cfg.NumSequences = 6
		cfg.SeqLenMin, cfg.SeqLenMax = 2, 3
		cfg.DurationDomain = 2
		ds := datagen.MustGenerate(cfg)
		syms := transact.MustNewSymbols(ds.Schema, ds.DefaultPlan())
		txs := syms.Encode(ds.DB)

		const maxLen = 4
		minCount := int64(8)
		opts := mining.SharedOptions(0)
		opts.MinCount = minCount
		res, err := mining.Mine(syms, txs, opts)
		if err != nil {
			t.Fatal(err)
		}
		// The exhaustive oracle is bounded by length; the level-wise loop's
		// levels up to k do not depend on where it stops.
		if len(res.ByLength) > maxLen {
			res.ByLength = res.ByLength[:maxLen]
		}
		oracle := bruteFrequent(txs, minCount, maxLen)

		got := map[string]int64{}
		for _, c := range res.All() {
			got[itemset.Key(c.Set)] = c.Count
		}
		for key, n := range got {
			want, ok := oracle[key]
			if !ok {
				t.Fatalf("seed %d: shared found %s (count %d) which is not frequent",
					seed, syms.SetString(itemset.FromKey(key)), n)
			}
			if want != n {
				t.Fatalf("seed %d: support of %s = %d, oracle %d",
					seed, syms.SetString(itemset.FromKey(key)), n, want)
			}
		}
		missedNonDerivable := 0
		for key, n := range oracle {
			if _, ok := got[key]; ok {
				continue
			}
			set := itemset.FromKey(key)
			if !syms.HasAncestorPair(set) {
				missedNonDerivable++
				t.Errorf("seed %d: shared missed %s (count %d)", seed, syms.SetString(set), n)
				if missedNonDerivable > 5 {
					t.Fatalf("too many misses")
				}
			}
		}
	}
}
