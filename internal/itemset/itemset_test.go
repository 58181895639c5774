package itemset_test

import (
	"sort"
	"testing"
	"testing/quick"

	"flowcube/internal/itemset"
	"flowcube/internal/transact"
)

func set(items ...transact.Item) []transact.Item { return items }

func TestKeyRoundTrip(t *testing.T) {
	s := set(3, 1, 4, 159)
	k := itemset.Key(s)
	back := itemset.FromKey(k)
	if len(back) != len(s) {
		t.Fatalf("round trip length %d, want %d", len(back), len(s))
	}
	for i := range s {
		if back[i] != s[i] {
			t.Errorf("round trip[%d] = %d, want %d", i, back[i], s[i])
		}
	}
	if itemset.Key(set(1, 2)) == itemset.Key(set(1, 3)) {
		t.Errorf("distinct sets share a key")
	}
}

func TestJoinClassic(t *testing.T) {
	// L2 = {ab, ac, ad, bc, bd}: join gives abc (ab+ac? prefix a), abd,
	// acd, bcd; subset pruning removes acd (cd not frequent) and bcd (cd
	// not frequent).
	l2 := []itemset.Counted{
		{Set: set(1, 2), Count: 3},
		{Set: set(1, 3), Count: 3},
		{Set: set(1, 4), Count: 3},
		{Set: set(2, 3), Count: 3},
		{Set: set(2, 4), Count: 3},
	}
	cands := itemset.Join(l2)
	keys := make(map[string]bool)
	for _, c := range cands {
		keys[itemset.Key(c)] = true
	}
	if !keys[itemset.Key(set(1, 2, 3))] || !keys[itemset.Key(set(1, 2, 4))] {
		t.Errorf("expected candidates {1,2,3} and {1,2,4} missing: %v", cands)
	}
	if keys[itemset.Key(set(1, 3, 4))] || keys[itemset.Key(set(2, 3, 4))] {
		t.Errorf("subset pruning failed: %v", cands)
	}
	if len(cands) != 2 {
		t.Errorf("join produced %d candidates, want 2", len(cands))
	}
}

func TestJoinEmpty(t *testing.T) {
	if got := itemset.Join(nil); got != nil {
		t.Errorf("Join(nil) = %v", got)
	}
}

func TestTrieCounting(t *testing.T) {
	trie := itemset.NewTrie()
	trie.Insert(set(1, 3))
	trie.Insert(set(1, 5))
	trie.Insert(set(2, 3))
	if trie.Size() != 3 {
		t.Fatalf("size = %d", trie.Size())
	}
	txs := []transact.Transaction{
		{1, 2, 3},    // contains {1,3} and {2,3}
		{1, 3, 5},    // contains {1,3} and {1,5}
		{2, 3},       // contains {2,3}
		{4, 6},       // contains nothing
		{1, 2, 3, 5}, // contains all three
	}
	for _, tx := range txs {
		trie.Count(tx)
	}
	counts := map[string]int64{}
	trie.Walk(func(s []transact.Item, n int64) {
		counts[itemset.Key(append([]transact.Item(nil), s...))] = n
	})
	if counts[itemset.Key(set(1, 3))] != 3 {
		t.Errorf("{1,3} = %d, want 3", counts[itemset.Key(set(1, 3))])
	}
	if counts[itemset.Key(set(1, 5))] != 2 {
		t.Errorf("{1,5} = %d, want 2", counts[itemset.Key(set(1, 5))])
	}
	if counts[itemset.Key(set(2, 3))] != 3 {
		t.Errorf("{2,3} = %d, want 3", counts[itemset.Key(set(2, 3))])
	}

	freq := trie.Frequent(3)
	if len(freq) != 2 {
		t.Errorf("Frequent(3) = %d sets, want 2", len(freq))
	}
}

func TestTrieDuplicateInsert(t *testing.T) {
	trie := itemset.NewTrie()
	trie.Insert(set(1, 2))
	trie.Insert(set(1, 2))
	if trie.Size() != 1 {
		t.Errorf("duplicate insert counted twice")
	}
	trie.Count(transact.Transaction{1, 2})
	freq := trie.Frequent(1)
	if len(freq) != 1 || freq[0].Count != 1 {
		t.Errorf("duplicate insert double-counts: %v", freq)
	}
}

func TestSortCounted(t *testing.T) {
	s := []itemset.Counted{
		{Set: set(2, 3)},
		{Set: set(1)},
		{Set: set(1, 9)},
		{Set: set(1, 2)},
	}
	itemset.SortCounted(s)
	want := [][]transact.Item{set(1), set(1, 2), set(1, 9), set(2, 3)}
	for i := range want {
		if itemset.Key(s[i].Set) != itemset.Key(want[i]) {
			t.Fatalf("order wrong at %d: %v", i, s)
		}
	}
}

// Property: trie counting agrees with a naive subset test.
func TestTrieMatchesNaiveProperty(t *testing.T) {
	f := func(candSeed, txSeed []uint8) bool {
		// Derive a small candidate set and transactions from the fuzz input.
		mk := func(b []uint8, width int) []transact.Item {
			m := map[transact.Item]bool{}
			for _, x := range b {
				m[transact.Item(x%16)] = true
				if len(m) == width {
					break
				}
			}
			var s []transact.Item
			for it := range m {
				s = append(s, it)
			}
			sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
			return s
		}
		cand := mk(candSeed, 3)
		if len(cand) == 0 {
			return true
		}
		tx := transact.Transaction(mk(txSeed, 8))

		trie := itemset.NewTrie()
		trie.Insert(cand)
		trie.Count(tx)
		var got int64
		trie.Walk(func(_ []transact.Item, n int64) { got = n })

		want := int64(1)
		for _, c := range cand {
			found := false
			for _, x := range tx {
				if x == c {
					found = true
					break
				}
			}
			if !found {
				want = 0
				break
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestCountParallelMatchesSequential: parallel counting must agree with
// sequential counting on identical inputs.
func TestCountParallelMatchesSequential(t *testing.T) {
	mkTx := func(seed int) transact.Transaction {
		var tx transact.Transaction
		for v := 0; v < 12; v++ {
			if (seed>>v)&1 == 1 {
				tx = append(tx, transact.Item(v))
			}
		}
		return tx
	}
	var txs []transact.Transaction
	for i := 1; i < 400; i++ {
		txs = append(txs, mkTx(i*2654435761))
	}
	var cands [][]transact.Item
	for a := 0; a < 10; a++ {
		for b := a + 1; b < 12; b++ {
			cands = append(cands, set(transact.Item(a), transact.Item(b)))
		}
	}
	seqTrie, parTrie := itemset.NewTrie(), itemset.NewTrie()
	for _, c := range cands {
		seqTrie.Insert(c)
		parTrie.Insert(c)
	}
	for _, tx := range txs {
		seqTrie.Count(tx)
	}
	parTrie.CountParallel(txs, 4)

	want := map[string]int64{}
	seqTrie.Walk(func(s []transact.Item, n int64) { want[itemset.Key(s)] = n })
	parTrie.Walk(func(s []transact.Item, n int64) {
		if want[itemset.Key(s)] != n {
			t.Fatalf("parallel count of %v = %d, sequential %d", s, n, want[itemset.Key(s)])
		}
	})

	// Degenerate worker counts fall back to the serial path.
	one := itemset.NewTrie()
	one.Insert(set(1, 2))
	one.CountParallel(txs, 1)
	one.CountParallel(txs[:1], 16)
}
