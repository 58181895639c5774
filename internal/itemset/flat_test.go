package itemset_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"flowcube/internal/itemset"
	"flowcube/internal/transact"
)

// randomSortedSet derives a sorted, duplicate-free itemset over [0, domain)
// from a seed, of size up to maxLen.
func randomSortedSet(rng *rand.Rand, domain, maxLen int) []transact.Item {
	n := rng.Intn(maxLen + 1)
	seen := map[transact.Item]bool{}
	for len(seen) < n {
		seen[transact.Item(rng.Intn(domain))] = true
	}
	out := make([]transact.Item, 0, len(seen))
	for it := range seen {
		out = append(out, it)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// harvest snapshots a trie's counts keyed by candidate.
func harvest(t *itemset.Trie) map[string]int64 {
	out := map[string]int64{}
	t.Walk(func(s []transact.Item, n int64) { out[itemset.Key(s)] = n })
	return out
}

// TestIterativeMatchesRecursive: the flat trie's explicit-stack merge-walk
// must agree with the recursive reference counter on random candidate sets
// and random sorted transactions — including deep transactions that would
// stress the call stack on the recursive path.
func TestIterativeMatchesRecursive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		iter, ref := itemset.NewTrie(), itemset.NewTrie()
		for c := 0; c < 1+rng.Intn(20); c++ {
			cand := randomSortedSet(rng, 24, 5)
			if len(cand) == 0 {
				continue
			}
			iter.Insert(cand)
			ref.Insert(cand)
		}
		for x := 0; x < 1+rng.Intn(30); x++ {
			tx := transact.Transaction(randomSortedSet(rng, 24, 24))
			iter.Count(tx)
			ref.CountRecursive(tx)
		}
		got, want := harvest(iter), harvest(ref)
		if len(got) != len(want) {
			t.Fatalf("round %d: %d candidates walked, reference %d", round, len(got), len(want))
		}
		for k, n := range want {
			if got[k] != n {
				t.Fatalf("round %d: count of %v = %d, reference %d",
					round, itemset.FromKey(k), got[k], n)
			}
		}
	}
}

// Property form of the same check, driven by testing/quick inputs.
func TestIterativeMatchesRecursiveProperty(t *testing.T) {
	f := func(candSeeds [][]uint8, txSeeds [][]uint8) bool {
		iter, ref := itemset.NewTrie(), itemset.NewTrie()
		mk := func(b []uint8) []transact.Item {
			seen := map[transact.Item]bool{}
			for _, x := range b {
				seen[transact.Item(x%20)] = true
			}
			var s []transact.Item
			for it := range seen {
				s = append(s, it)
			}
			sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
			return s
		}
		inserted := false
		for _, seed := range candSeeds {
			if cand := mk(seed); len(cand) > 0 && len(cand) <= 4 {
				iter.Insert(cand)
				ref.Insert(cand)
				inserted = true
			}
		}
		if !inserted {
			return true
		}
		for _, seed := range txSeeds {
			tx := transact.Transaction(mk(seed))
			iter.Count(tx)
			ref.CountRecursive(tx)
		}
		got, want := harvest(iter), harvest(ref)
		if len(got) != len(want) {
			return false
		}
		for k, n := range want {
			if got[k] != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestDeepTransactionCounting: a maximal-depth candidate inside a long
// transaction — the case the explicit stack exists for.
func TestDeepTransactionCounting(t *testing.T) {
	const depth = 512
	cand := make([]transact.Item, depth)
	tx := make(transact.Transaction, depth)
	for i := range cand {
		cand[i] = transact.Item(i)
		tx[i] = transact.Item(i)
	}
	trie := itemset.NewTrie()
	trie.Insert(cand)
	// Every prefix is also a candidate, so the walk keeps many frames live.
	for l := 1; l < depth; l += 37 {
		trie.Insert(cand[:l])
	}
	for i := 0; i < 3; i++ {
		trie.Count(tx)
	}
	trie.Walk(func(_ []transact.Item, n int64) {
		if n != 3 {
			t.Fatalf("deep candidate counted %d, want 3", n)
		}
	})
}

// TestInsertAfterCountPreservesCounts: Insert invalidates the flattened
// layout; counts accumulated before the insert must survive the thaw.
func TestInsertAfterCountPreservesCounts(t *testing.T) {
	trie := itemset.NewTrie()
	trie.Insert(set(1, 2))
	trie.Count(transact.Transaction{1, 2, 3})
	if !trie.Frozen() {
		t.Fatalf("Count did not freeze the trie")
	}
	trie.Insert(set(1, 3))
	if trie.Frozen() {
		t.Fatalf("Insert did not thaw the trie")
	}
	trie.Count(transact.Transaction{1, 2, 3})
	counts := harvest(trie)
	if counts[itemset.Key(set(1, 2))] != 2 {
		t.Errorf("{1,2} = %d, want 2 (count before Insert lost?)", counts[itemset.Key(set(1, 2))])
	}
	if counts[itemset.Key(set(1, 3))] != 1 {
		t.Errorf("{1,3} = %d, want 1", counts[itemset.Key(set(1, 3))])
	}
}

// shardedEquivalenceTxs builds a deterministic transaction set large enough
// to engage the parallel path at every tested worker count.
func shardedEquivalenceTxs() []transact.Transaction {
	var txs []transact.Transaction
	for i := 1; i < 600; i++ {
		seed := i * 2654435761
		var tx transact.Transaction
		for v := 0; v < 14; v++ {
			if (seed>>v)&1 == 1 {
				tx = append(tx, transact.Item(v))
			}
		}
		txs = append(txs, tx)
	}
	return txs
}

// TestShardedMatchesSequentialAndAtomic: per-worker buffer counting must
// agree with the sequential count, at the worker counts the race-detector
// CI run uses. (The atomic variant it also compared is deleted; the name
// stays so the test keeps its id.)
func TestShardedMatchesSequentialAndAtomic(t *testing.T) {
	txs := shardedEquivalenceTxs()
	var cands [][]transact.Item
	for a := 0; a < 12; a++ {
		for b := a + 1; b < 14; b++ {
			cands = append(cands, set(transact.Item(a), transact.Item(b)))
		}
	}
	seq := itemset.NewTrie()
	for _, c := range cands {
		seq.Insert(c)
	}
	for _, tx := range txs {
		seq.Count(tx)
	}
	want := harvest(seq)

	for _, workers := range []int{2, 4, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			sharded := itemset.NewTrie()
			for _, c := range cands {
				sharded.Insert(c)
			}
			sharded.CountParallel(txs, workers)
			got := harvest(sharded)
			if len(got) != len(want) {
				t.Fatalf("sharded walked %d candidates, want %d", len(got), len(want))
			}
			for k, n := range want {
				if got[k] != n {
					t.Errorf("sharded count of %v = %d, want %d", itemset.FromKey(k), got[k], n)
				}
			}
		})
	}
}

// FuzzIterativeMatchesRecursive fuzzes the iterative counter against the
// recursive oracle with arbitrary byte-derived candidates and transactions.
func FuzzIterativeMatchesRecursive(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{1, 2, 3, 4})
	f.Add([]byte{7}, []byte{})
	f.Add([]byte{0, 0, 5, 9}, []byte{5, 9, 9, 1})
	f.Fuzz(func(t *testing.T, candBytes, txBytes []byte) {
		mk := func(b []byte) []transact.Item {
			seen := map[transact.Item]bool{}
			for _, x := range b {
				seen[transact.Item(x%32)] = true
			}
			var s []transact.Item
			for it := range seen {
				s = append(s, it)
			}
			sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
			return s
		}
		cand := mk(candBytes)
		if len(cand) == 0 {
			t.Skip()
		}
		tx := transact.Transaction(mk(txBytes))
		iter, ref := itemset.NewTrie(), itemset.NewTrie()
		iter.Insert(cand)
		ref.Insert(cand)
		iter.Count(tx)
		ref.CountRecursive(tx)
		got, want := harvest(iter), harvest(ref)
		for k, n := range want {
			if got[k] != n {
				t.Fatalf("iterative count %d, recursive %d for %v", got[k], n, itemset.FromKey(k))
			}
		}
	})
}
