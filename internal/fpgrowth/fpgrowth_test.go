package fpgrowth_test

import (
	"testing"

	"flowcube/internal/datagen"
	"flowcube/internal/fpgrowth"
	"flowcube/internal/hierarchy"
	"flowcube/internal/itemset"
	"flowcube/internal/mining"
	"flowcube/internal/paperex"
	"flowcube/internal/pathdb"
	"flowcube/internal/transact"
)

// bruteFrequent is the exhaustive oracle (same as the mining package's).
func bruteFrequent(txs []transact.Transaction, minCount int64, maxLen int) map[string]int64 {
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
	for i := 1; i < len(items); i++ {
		for j := i; j > 0 && items[j] < items[j-1]; j-- {
			items[j], items[j-1] = items[j-1], items[j]
		}
	}
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

func textbookTxs() []transact.Transaction {
	// The classic FP-growth running example (items renamed to ints):
	// f=1 c=2 a=3 b=4 m=5 p=6 i=7 o=8, minCount 3.
	return []transact.Transaction{
		{1, 2, 3, 5, 6},    // f c a m p
		{1, 2, 3, 4, 5},    // f c a b m
		{1, 4},             // f b
		{2, 4, 6},          // c b p
		{1, 2, 3, 5, 6, 8}, // f c a m p o
	}
}

// counted is one mined itemset with its support.
type counted struct {
	Set   []transact.Item
	Count int64
}

// flatten lists the itemsets of every level, checking on the way what the
// levels promise: element k-1 holds length-k sets in strictly ascending
// lexicographic order, one count each.
func flatten(t *testing.T, levels []itemset.Level) []counted {
	t.Helper()
	var out []counted
	for i, l := range levels {
		if l.K != i+1 || len(l.Counts) != l.Len() {
			t.Fatalf("level %d: K=%d with %d sets and %d counts", i, l.K, l.Len(), len(l.Counts))
		}
		for j := 0; j < l.Len(); j++ {
			if j > 0 && itemset.Key(l.Set(j)) == itemset.Key(l.Set(j-1)) {
				t.Fatalf("level %d repeats %v", i, l.Set(j))
			}
			if _, ok := l.Support(l.Set(j)); !ok {
				t.Fatalf("level %d is not sorted: binary search misses %v", i, l.Set(j))
			}
			out = append(out, counted{l.Set(j), l.Counts[j]})
		}
	}
	return out
}

func TestTextbookExample(t *testing.T) {
	got := flatten(t, fpgrowth.Mine(textbookTxs(), 3, 0))
	index := map[string]int64{}
	for _, c := range got {
		index[itemset.Key(c.Set)] = c.Count
	}
	want := map[string]int64{
		itemset.Key([]transact.Item{1}):          4, // f
		itemset.Key([]transact.Item{2}):          4, // c
		itemset.Key([]transact.Item{3}):          3, // a
		itemset.Key([]transact.Item{1, 2, 3, 5}): 3, // fcam
		itemset.Key([]transact.Item{2, 6}):       3, // cp
		itemset.Key([]transact.Item{1, 2}):       3, // fc
	}
	for key, n := range want {
		if index[key] != n {
			t.Errorf("support %v = %d, want %d", itemset.FromKey(key), index[key], n)
		}
	}
	oracle := bruteFrequent(textbookTxs(), 3, 0)
	if len(oracle) != len(got) {
		t.Fatalf("found %d itemsets, oracle has %d", len(got), len(oracle))
	}
}

func TestMatchesOracleOnSynthetic(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		cfg := datagen.Default()
		cfg.Seed = seed
		cfg.NumPaths = 80
		cfg.NumDims = 2
		cfg.NumSequences = 6
		cfg.SeqLenMin, cfg.SeqLenMax = 2, 3
		cfg.DurationDomain = 2
		ds := datagen.MustGenerate(cfg)
		leaf := hierarchy.LevelCut(ds.Schema.Location, ds.Schema.Location.Depth())
		syms := transact.MustNewSymbols(ds.Schema, transact.Plan{
			PathLevels: []pathdb.PathLevel{{Cut: leaf, Time: pathdb.TimeBase}},
		})
		txs := syms.Encode(ds.DB)

		const maxLen = 4
		const minCount = 8
		got := flatten(t, fpgrowth.Mine(txs, minCount, maxLen))
		oracle := bruteFrequent(txs, minCount, maxLen)
		if len(got) != len(oracle) {
			t.Fatalf("seed %d: fpgrowth found %d itemsets, oracle %d", seed, len(got), len(oracle))
		}
		for _, c := range got {
			if oracle[itemset.Key(c.Set)] != c.Count {
				t.Fatalf("seed %d: support of %s = %d, oracle %d",
					seed, syms.SetString(c.Set), c.Count, oracle[itemset.Key(c.Set)])
			}
		}
	}
}

func TestMaxLenRespected(t *testing.T) {
	got := flatten(t, fpgrowth.Mine(textbookTxs(), 2, 2))
	if len(got) == 0 {
		t.Fatal("nothing mined")
	}
	for _, c := range got {
		if len(c.Set) > 2 {
			t.Fatalf("maxLen=2 produced %v", c.Set)
		}
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	if got := fpgrowth.Mine(nil, 1, 0); len(got) != 0 {
		t.Errorf("empty input produced %v", got)
	}
	// minCount above every support finds nothing.
	if got := fpgrowth.Mine(textbookTxs(), 100, 0); len(got) != 0 {
		t.Errorf("impossible support produced %v", got)
	}
	// minCount < 1 is clamped to 1.
	got := flatten(t, fpgrowth.Mine([]transact.Transaction{{7}}, 0, 0))
	if len(got) != 1 || got[0].Count != 1 {
		t.Errorf("single transaction mined wrong: %v", got)
	}
}

// TestRunningExampleAgainstApriori gives FP-growth an oracle that shares no
// code with it: over the stage transactions of the running example's apex
// cell and of each product-category cell (shoes, outerwear) — what the Cubing
// competitor mines per cell — it must find the itemsets and supports plain
// Apriori (mining.Mine with every pruning rule off) finds.
func TestRunningExampleAgainstApriori(t *testing.T) {
	ex := paperex.New()
	leaf := hierarchy.LevelCut(ex.Location, ex.Location.Depth())
	syms := transact.MustNewSymbols(ex.Schema, transact.Plan{
		PathLevels: []pathdb.PathLevel{
			{Cut: leaf, Time: pathdb.TimeBase},
			{Cut: leaf, Time: pathdb.TimeAny},
		},
	})
	cells := map[hierarchy.NodeID][]transact.Transaction{}
	for _, r := range ex.DB.Records {
		tx := syms.EncodeStages(r.Path)
		cells[hierarchy.Root] = append(cells[hierarchy.Root], tx)
		category := ex.Product.AncestorAt(r.Dims[0], 2)
		cells[category] = append(cells[category], tx)
	}
	if len(cells) < 3 {
		t.Fatalf("running example split into %d cells, want the apex and two categories or more", len(cells))
	}
	for cell, txs := range cells {
		apriori, err := mining.Mine(syms, txs, mining.Options{MinCount: 2})
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]int64{}
		for _, c := range flatten(t, apriori.ByLength) {
			want[itemset.Key(c.Set)] = c.Count
		}
		got := flatten(t, fpgrowth.Mine(txs, 2, 0))
		if len(got) != len(want) {
			t.Fatalf("cell %s: fpgrowth found %d itemsets, apriori %d", ex.Product.Name(cell), len(got), len(want))
		}
		for _, c := range got {
			if want[itemset.Key(c.Set)] != c.Count {
				t.Errorf("cell %s: support of %s = %d, apriori %d",
					ex.Product.Name(cell), syms.SetString(c.Set), c.Count, want[itemset.Key(c.Set)])
			}
		}
	}
}
