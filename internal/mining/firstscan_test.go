package mining_test

import (
	"sync"
	"testing"

	"flowcube/internal/mining"
	"flowcube/internal/oracle"
	"flowcube/internal/paperex"
	"flowcube/internal/transact"
)

// referenceScan is the pre-optimization map-based first scan, kept here as
// the oracle the dense-counter FirstScan must agree with.
func referenceScan(syms *transact.Symbols, txs []transact.Transaction) (map[transact.Item]int64, map[[2]transact.Item]int64) {
	items := make(map[transact.Item]int64)
	pairs := make(map[[2]transact.Item]int64)
	for _, tx := range txs {
		for _, it := range tx {
			items[it]++
		}
		var top []transact.Item
		for _, it := range tx {
			if syms.IsTopLevel(it) {
				top = append(top, it)
			}
		}
		for i := 0; i < len(top); i++ {
			for j := i + 1; j < len(top); j++ {
				a, b := top[i], top[j]
				if a > b {
					a, b = b, a
				}
				pairs[[2]transact.Item{a, b}]++
			}
		}
	}
	return items, pairs
}

func checkFirstScan(t *testing.T, syms *transact.Symbols, txs []transact.Transaction, workers int) {
	t.Helper()
	wantItems, wantPairs := referenceScan(syms, txs)
	items, pairs := mining.FirstScan(syms, txs, true, workers)
	if len(items) != syms.Len() {
		t.Fatalf("workers=%d: item counter has %d entries, symbols %d", workers, len(items), syms.Len())
	}
	for it, n := range items {
		if n != wantItems[transact.Item(it)] {
			t.Errorf("workers=%d: item %s count = %d, reference %d",
				workers, syms.ItemString(transact.Item(it)), n, wantItems[transact.Item(it)])
		}
	}
	// Every top-level pair (co-occurring or not) must agree with the
	// reference; absent pairs read as zero.
	var top []transact.Item
	for it := 0; it < syms.Len(); it++ {
		if syms.IsTopLevel(transact.Item(it)) {
			top = append(top, transact.Item(it))
		}
	}
	for i := 0; i < len(top); i++ {
		for j := i + 1; j < len(top); j++ {
			want := wantPairs[[2]transact.Item{top[i], top[j]}]
			if got := pairs.Get(top[i], top[j]); got != want {
				t.Errorf("workers=%d: pair {%s,%s} = %d, reference %d",
					workers, syms.ItemString(top[i]), syms.ItemString(top[j]), got, want)
			}
			if got := pairs.Get(top[j], top[i]); got != want {
				t.Errorf("workers=%d: pair lookup not symmetric for {%s,%s}",
					workers, syms.ItemString(top[i]), syms.ItemString(top[j]))
			}
		}
	}
}

// TestFirstScanMatchesReference: the dense slice counters (and the sharded
// merge) must reproduce the map-based scan exactly, on both the dense and
// the sparse pair-table paths.
func TestFirstScanMatchesReference(t *testing.T) {
	ex := paperex.New()
	syms := transact.MustNewSymbols(ex.Schema, oracle.Cuts(ex))
	txs := syms.Encode(ex.DB)
	// Replicate the tiny example database so every worker count below gets
	// a real shard.
	for i := 0; i < 5; i++ {
		txs = append(txs, txs[:len(ex.DB.Records)]...)
	}

	for _, workers := range []int{1, 2, 4, 8} {
		checkFirstScan(t, syms, txs, workers)
	}

	// Force the sparse fallback and re-check every worker count.
	restore := mining.SetMaxDensePairsForTest(0)
	defer restore()
	for _, workers := range []int{1, 2, 4, 8} {
		checkFirstScan(t, syms, txs, workers)
	}
}

// TestFirstScanNoPrecount: pair counting off returns a nil table whose Get
// is safely zero.
func TestFirstScanNoPrecount(t *testing.T) {
	ex := paperex.New()
	syms := transact.MustNewSymbols(ex.Schema, oracle.Leaf(ex))
	txs := syms.Encode(ex.DB)
	items, pairs := mining.FirstScan(syms, txs, false, 4)
	if pairs != nil {
		t.Fatalf("precount off returned a pair table")
	}
	if pairs.Get(0, 1) != 0 {
		t.Fatalf("nil pair table Get != 0")
	}
	wantItems, _ := referenceScan(syms, txs)
	for it, n := range items {
		if n != wantItems[transact.Item(it)] {
			t.Errorf("item %d count = %d, reference %d", it, n, wantItems[transact.Item(it)])
		}
	}
}

// TestSupportConcurrent hammers Support from many goroutines — a Result is
// reachable from concurrent readers, so the lookup must stay read-only; the
// race detector run in CI is what gives this test teeth.
func TestSupportConcurrent(t *testing.T) {
	ex := paperex.New()
	syms := transact.MustNewSymbols(ex.Schema, oracle.Cuts(ex))
	txs := syms.Encode(ex.DB)
	res, err := mining.Mine(syms, txs, mining.SharedOptions(0.25))
	if err != nil {
		t.Fatal(err)
	}
	all := res.All()
	if len(all) == 0 {
		t.Fatal("no frequent itemsets to query")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range all {
				c := all[(i+g)%len(all)]
				n, ok := res.Support(c.Set)
				if !ok || n != c.Count {
					t.Errorf("concurrent Support(%v) = %d/%v, want %d", c.Set, n, ok, c.Count)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
