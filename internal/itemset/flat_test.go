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

// randomSortedSet derives a sorted, duplicate-free itemset of exactly n
// items over [0, domain).
func randomSortedSet(rng *rand.Rand, domain, n int) []transact.Item {
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

// checkAgainstReference counts txs through the trie at 1, 2, 3 and 8
// workers and through the recursive reference over a pointer trie, and
// requires identical per-candidate supports.
func checkAgainstReference(t *testing.T, label string, cands itemset.Level, txs []transact.Transaction) {
	t.Helper()
	ref := itemset.NewRefTrie(cands)
	for _, tx := range txs {
		ref.Count(tx)
	}
	want := ref.Counts()
	for _, workers := range []int{1, 2, 3, 8} {
		trie := itemset.NewTrie(cands)
		trie.Count(txs, workers)
		got := trie.Counts()
		if len(got) != len(want) {
			t.Fatalf("%s: trie reports %d candidates, reference %d", label, len(got), len(want))
		}
		for i, n := range want {
			if got[i] != n {
				t.Fatalf("%s, %d workers: count of %v = %d, reference %d", label, workers, cands.Set(i), got[i], n)
			}
		}
	}
}

// TestIterativeMatchesRecursive: the one-pass layout and the blocked
// vertical walk must agree with the recursive reference counter on random
// candidate levels of every length — single-candidate tries included — and
// random sorted transactions.
func TestIterativeMatchesRecursive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 300; round++ {
		k := 1 + rng.Intn(6)
		var cs [][]transact.Item
		for c := 0; c < 1+rng.Intn(40); c++ {
			cs = append(cs, randomSortedSet(rng, 24, k))
		}
		var txs []transact.Transaction
		for x := 0; x < 1+rng.Intn(30); x++ {
			txs = append(txs, transact.Transaction(randomSortedSet(rng, 24, rng.Intn(25))))
		}
		checkAgainstReference(t, fmt.Sprintf("round %d (k=%d)", round, k), levelOf(k, cs...), txs)
	}
}

// TestCountMatchesReferenceAtBlockEdges: supports must not depend on where
// the transactions fall against the 64-transaction bitmap words and the
// counting blocks, nor on how the root's children are split among workers.
// Every transaction count from none to three blocks and a bit is counted
// against the reference at k = 1..6, over random levels and over levels with
// a single root child (more requested parts than root children), with empty
// transactions and items above the trie's largest item mixed in; then over a
// level of few, very wide root children (a few first items, hundreds of
// second items each).
func TestCountMatchesReferenceAtBlockEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := itemset.BlockTx
	for _, n := range []int{0, 1, 63, 64, 65, b - 1, b, b + 1, 3*b + 17} {
		txs := make([]transact.Transaction, n)
		for x := range txs {
			if rng.Intn(8) > 0 { // the rest stay empty
				txs[x] = randomSortedSet(rng, 32, rng.Intn(20)) // candidates draw from [0, 24)
			}
		}
		for k := 1; k <= 6; k++ {
			var random, rooted [][]transact.Item
			for c := 0; c < 1+rng.Intn(40); c++ {
				random = append(random, randomSortedSet(rng, 24, k))
				s := randomSortedSet(rng, 23, k)
				for i := range s {
					s[i]++ // [1, 24): item 0 leads every set, so it roots them all
				}
				rooted = append(rooted, append([]transact.Item{0}, s[:k-1]...))
			}
			checkAgainstReference(t, fmt.Sprintf("%d txs, random k=%d", n, k), levelOf(k, random...), txs)
			checkAgainstReference(t, fmt.Sprintf("%d txs, one root child k=%d", n, k), levelOf(k, rooted...), txs)
		}
	}

	var cs [][]transact.Item
	for first := 0; first < 3; first++ {
		for second := 10; second < 400; second++ {
			if rng.Intn(4) > 0 {
				cs = append(cs, set(transact.Item(first), transact.Item(second), transact.Item(second+1+rng.Intn(3))))
			}
		}
	}
	var txs []transact.Transaction
	for x := 0; x < b+200; x++ {
		tx := transact.Transaction{transact.Item(rng.Intn(3))}
		for _, it := range randomSortedSet(rng, 400, 2+rng.Intn(12)) {
			tx = append(tx, it+10)
		}
		txs = append(txs, tx)
	}
	checkAgainstReference(t, "wide root children", levelOf(3, cs...), txs)
}

// Property form of the same check, driven by testing/quick inputs.
func TestIterativeMatchesRecursiveProperty(t *testing.T) {
	f := func(width uint8, candSeeds [][]uint8, txSeeds [][]uint8) bool {
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
		k := 1 + int(width%4)
		var cs [][]transact.Item
		for _, seed := range candSeeds {
			if cand := mk(seed); len(cand) >= k {
				cs = append(cs, cand[:k])
			}
		}
		if len(cs) == 0 {
			return true
		}
		cands := levelOf(k, cs...)
		iter, ref := itemset.NewTrie(cands), itemset.NewRefTrie(cands)
		var txs []transact.Transaction
		for _, seed := range txSeeds {
			tx := transact.Transaction(mk(seed))
			txs = append(txs, tx)
			ref.Count(tx)
		}
		iter.Count(txs, 2)
		got, want := iter.Counts(), ref.Counts()
		if len(got) != len(want) {
			return false
		}
		for i, n := range want {
			if got[i] != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestDeepTransactionCounting: maximal-depth candidates inside a long
// transaction — one row per depth, 512 deep — and a pattern far longer than
// 255 items, which the layout must carry whole.
func TestDeepTransactionCounting(t *testing.T) {
	const depth = 512
	cand := make([]transact.Item, depth)
	tx := make(transact.Transaction, depth+2)
	for i := range tx {
		tx[i] = transact.Item(i)
	}
	copy(cand, tx)
	// Three candidates sharing a 511-item prefix: two inside the
	// transaction, one not.
	other, absent := append([]transact.Item(nil), cand...), append([]transact.Item(nil), cand...)
	other[depth-1] = depth
	absent[depth-1] = depth + 7
	cands := levelOf(depth, cand, other, absent)
	trie := itemset.NewTrie(cands)
	trie.Count([]transact.Transaction{tx, tx, tx}, 1)
	for i, want := range []int64{3, 3, 0} {
		if got := trie.Counts()[i]; got != want {
			t.Errorf("deep candidate %d counted %d, want %d", i, got, want)
		}
	}
	if freq := trie.Frequent(1); freq.Len() != 2 || len(freq.Set(1)) != depth || freq.Set(1)[depth-1] != depth {
		t.Errorf("harvest truncated a %d-item pattern: %d sets", depth, freq.Len())
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

// TestShardedMatchesSequentialAndAtomic: per-worker shard counting, with the
// one block's root children split among the workers, must agree with one
// worker. (The atomic variant it also compared is deleted; the name stays so
// the test keeps its id.)
func TestShardedMatchesSequentialAndAtomic(t *testing.T) {
	txs := shardedEquivalenceTxs()
	var pairs [][]transact.Item
	for a := 0; a < 12; a++ {
		for b := a + 1; b < 14; b++ {
			pairs = append(pairs, set(transact.Item(a), transact.Item(b)))
		}
	}
	cands := levelOf(2, pairs...)
	seq := itemset.NewTrie(cands)
	seq.Count(txs, 1)
	want := seq.Counts()

	for _, workers := range []int{2, 4, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			sharded := itemset.NewTrie(cands)
			sharded.Count(txs, workers)
			got := sharded.Counts()
			if len(got) != len(want) {
				t.Fatalf("sharded reports %d candidates, want %d", len(got), len(want))
			}
			for i, n := range want {
				if got[i] != n {
					t.Errorf("sharded count of %v = %d, want %d", cands.Set(i), got[i], n)
				}
			}
		})
	}
}

// FuzzCountMatchesReference fuzzes the counter against the recursive
// reference with byte-derived candidates and at least 65 byte-derived
// transactions, so every input crosses a 64-transaction bitmap word.
func FuzzCountMatchesReference(f *testing.F) {
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
		// The candidate and every set obtained by replacing its last item:
		// one shared prefix path, several leaves.
		cs := [][]transact.Item{cand}
		for _, x := range txBytes {
			if it := transact.Item(x % 32); it > cand[len(cand)-1] {
				alt := append([]transact.Item(nil), cand...)
				alt[len(alt)-1] = it
				cs = append(cs, alt)
			}
		}
		// Transaction i keeps byte j of txBytes unless bit j%8 of i is set,
		// so the transactions differ in a pattern that repeats every 256.
		txs := make([]transact.Transaction, 65+len(txBytes)%200)
		for i := range txs {
			var kept []byte
			for j, x := range txBytes {
				if i>>(j%8)&1 == 0 {
					kept = append(kept, x)
				}
			}
			txs[i] = mk(kept)
		}
		cands := levelOf(len(cand), cs...)
		ref := itemset.NewRefTrie(cands)
		for _, tx := range txs {
			ref.Count(tx)
		}
		trie := itemset.NewTrie(cands)
		trie.Count(txs, 1+len(candBytes)%3)
		got, want := trie.Counts(), ref.Counts()
		for i, n := range want {
			if got[i] != n {
				t.Fatalf("count %d, reference %d for %v", got[i], n, cands.Set(i))
			}
		}
	})
}
