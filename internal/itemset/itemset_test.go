package itemset_test

import (
	"sort"
	"testing"
	"testing/quick"

	"flowcube/internal/itemset"
	"flowcube/internal/transact"
)

func set(items ...transact.Item) []transact.Item { return items }

// levelOf builds a sorted, duplicate-free level of length-k sets without
// counts: what Join emits and NewTrie takes.
func levelOf(k int, sets ...[]transact.Item) itemset.Level {
	sort.Slice(sets, func(i, j int) bool {
		for d := range sets[i] {
			if sets[i][d] != sets[j][d] {
				return sets[i][d] < sets[j][d]
			}
		}
		return false
	})
	l := itemset.Level{K: k}
	for i, s := range sets {
		if i > 0 && itemset.Key(s) == itemset.Key(sets[i-1]) {
			continue
		}
		l.Items = append(l.Items, s...)
	}
	return l
}

// sets lists a level's itemsets as fresh slices.
func sets(l itemset.Level) [][]transact.Item {
	var out [][]transact.Item
	for i := 0; i < l.Len(); i++ {
		out = append(out, append([]transact.Item(nil), l.Set(i)...))
	}
	return out
}

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
	l2 := levelOf(2, set(1, 2), set(1, 3), set(1, 4), set(2, 3), set(2, 4))
	cands := itemset.Join(l2, 1)
	keys := make(map[string]bool)
	for _, c := range sets(cands) {
		keys[itemset.Key(c)] = true
	}
	if !keys[itemset.Key(set(1, 2, 3))] || !keys[itemset.Key(set(1, 2, 4))] {
		t.Errorf("expected candidates {1,2,3} and {1,2,4} missing: %v", cands)
	}
	if keys[itemset.Key(set(1, 3, 4))] || keys[itemset.Key(set(2, 3, 4))] {
		t.Errorf("subset pruning failed: %v", cands)
	}
	if cands.Len() != 2 || cands.K != 3 {
		t.Errorf("join produced %d candidates of length %d, want 2 of length 3", cands.Len(), cands.K)
	}
}

func TestJoinEmpty(t *testing.T) {
	if got := itemset.Join(itemset.Level{}, 1); got.Len() != 0 {
		t.Errorf("Join of the empty level = %v", got)
	}
	if got := itemset.Join(levelOf(2, set(1, 2)), 4); got.Len() != 0 {
		t.Errorf("Join of a single set = %v", got)
	}
}

func TestTrieCounting(t *testing.T) {
	trie := itemset.NewTrie(levelOf(2, set(1, 3), set(1, 5), set(2, 3)))
	txs := []transact.Transaction{
		{1, 2, 3},    // contains {1,3} and {2,3}
		{1, 3, 5},    // contains {1,3} and {1,5}
		{2, 3},       // contains {2,3}
		{4, 6},       // contains nothing
		{1, 2, 3, 5}, // contains all three
	}
	trie.Count(txs, 1)
	counts := trie.Counts() // level order: {1,3}, {1,5}, {2,3}
	if len(counts) != 3 {
		t.Fatalf("%d counts, want 3", len(counts))
	}
	for i, want := range []int64{3, 2, 3} {
		if counts[i] != want {
			t.Errorf("candidate %d = %d, want %d", i, counts[i], want)
		}
	}

	freq := trie.Frequent(3)
	if freq.Len() != 2 || freq.K != 2 {
		t.Fatalf("Frequent(3) = %d sets of length %d, want 2 of length 2", freq.Len(), freq.K)
	}
	if n, ok := freq.Support(set(2, 3)); !ok || n != 3 {
		t.Errorf("Support({2,3}) = %d, %v, want 3", n, ok)
	}
	if _, ok := freq.Support(set(1, 5)); ok {
		t.Errorf("{1,5} (support 2) harvested at threshold 3")
	}
	if _, ok := freq.Support(set(1, 3, 5)); ok {
		t.Errorf("a set of another length found in the level")
	}
	if got := trie.Frequent(4); got.Len() != 0 {
		t.Errorf("Frequent(4) = %v, want empty", got)
	}
}

// TestNewTrieRejectsUnsortedLevel: leaf ids are candidate indexes, so a
// repeated or out-of-order candidate must stop the build, not shift every
// later count by one.
func TestNewTrieRejectsUnsortedLevel(t *testing.T) {
	for name, l := range map[string]itemset.Level{
		"duplicate": {K: 2, Items: set(1, 2, 1, 2)},
		"unsorted":  {K: 2, Items: set(1, 3, 1, 2)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s level: NewTrie did not panic", name)
				}
			}()
			itemset.NewTrie(l)
		}()
	}
}

func TestLevelSort(t *testing.T) {
	l := itemset.Level{K: 2}
	l.Append(set(2, 3), 23)
	l.Append(set(1, 9), 19)
	l.Append(set(1, 2), 12)
	l.Sort()
	want := [][]transact.Item{set(1, 2), set(1, 9), set(2, 3)}
	for i := range want {
		if itemset.Key(l.Set(i)) != itemset.Key(want[i]) {
			t.Fatalf("order wrong at %d: %v", i, l)
		}
		if n, ok := l.Support(want[i]); !ok || n != int64(10*want[i][0]+want[i][1]) {
			t.Errorf("count did not follow %v: %d, %v", want[i], n, ok)
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

		trie := itemset.NewTrie(levelOf(len(cand), cand))
		trie.Count([]transact.Transaction{tx}, 1)
		got := trie.Counts()[0]

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

// TestCountParallelMatchesSequential: counting across workers must agree
// with one worker on identical inputs.
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
	var pairs [][]transact.Item
	for a := 0; a < 10; a++ {
		for b := a + 1; b < 12; b++ {
			pairs = append(pairs, set(transact.Item(a), transact.Item(b)))
		}
	}
	cands := levelOf(2, pairs...)
	seqTrie, parTrie := itemset.NewTrie(cands), itemset.NewTrie(cands)
	seqTrie.Count(txs, 1)
	parTrie.Count(txs, 4)

	want, got := seqTrie.Counts(), parTrie.Counts()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parallel count of %v = %d, sequential %d", cands.Set(i), got[i], want[i])
		}
	}

	// More workers than work units, and a second call adding to the first.
	one := itemset.NewTrie(levelOf(2, set(1, 2)))
	one.Count(txs[:1], 16)
	one.Count(txs[1:], 16)
	if want, _ := seqTrie.Frequent(0).Support(set(1, 2)); one.Counts()[0] != want {
		t.Errorf("{1,2} counted %d over two calls, want %d", one.Counts()[0], want)
	}
}
