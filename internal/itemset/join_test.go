package itemset_test

import (
	"fmt"
	"math/rand"
	"testing"

	"flowcube/internal/itemset"
	"flowcube/internal/transact"
)

// bruteJoin is the definition Join must meet, computed with none of its
// machinery: every (k+1)-subset of the domain all of whose k-subsets are in
// prev, in lexicographic order.
func bruteJoin(prev itemset.Level, domain int) [][]transact.Item {
	have := map[string]bool{}
	for i := 0; i < prev.Len(); i++ {
		have[itemset.Key(prev.Set(i))] = true
	}
	var out [][]transact.Item
	cand := make([]transact.Item, 0, prev.K+1)
	var rec func(from int)
	rec = func(from int) {
		if len(cand) == prev.K+1 {
			sub := make([]transact.Item, 0, prev.K)
			for drop := range cand {
				sub = append(append(sub[:0], cand[:drop]...), cand[drop+1:]...)
				if !have[itemset.Key(sub)] {
					return
				}
			}
			out = append(out, append([]transact.Item(nil), cand...))
			return
		}
		for it := from; it < domain; it++ {
			cand = append(cand, transact.Item(it))
			rec(it + 1)
			cand = cand[:len(cand)-1]
		}
	}
	rec(0)
	return out
}

// pickSubsets enumerates the k-subsets of [0, domain) in lexicographic order
// and returns those keep accepts by their ordinal.
func pickSubsets(k, domain int, keep func(n int) bool) [][]transact.Item {
	var out [][]transact.Item
	n := 0
	var rec func(from int, cur []transact.Item)
	rec = func(from int, cur []transact.Item) {
		if len(cur) == k {
			if keep(n) {
				out = append(out, append([]transact.Item(nil), cur...))
			}
			n++
			return
		}
		for it := from; it < domain; it++ {
			rec(it+1, append(cur, transact.Item(it)))
		}
	}
	rec(0, nil)
	return out
}

// checkJoin compares Join at several worker counts — sharded even on small
// levels — with the brute-force definition.
func checkJoin(t *testing.T, label string, prev itemset.Level, domain int) {
	t.Helper()
	defer itemset.SetJoinParallelMinForTest(0)()
	want := bruteJoin(prev, domain)
	for _, workers := range []int{1, 2, 3, 8} {
		got := itemset.Join(prev, workers)
		if got.K != prev.K+1 || got.Counts != nil || got.Len() != len(want) {
			t.Fatalf("%s workers=%d: %d candidates of length %d, want %d of length %d\nprev %v\ngot  %v\nwant %v",
				label, workers, got.Len(), got.K, len(want), prev.K+1, sets(prev), sets(got), want)
		}
		for i, w := range want {
			if itemset.Key(got.Set(i)) != itemset.Key(w) {
				t.Fatalf("%s workers=%d: candidate %d = %v, want %v\nprev %v", label, workers, i, got.Set(i), w, sets(prev))
			}
		}
	}
}

// TestJoinMatchesBruteForce: on random sorted levels of every length, over
// domains small enough that prefixes and subsets collide, the flat join is
// the set the Apriori definition names, in lexicographic order, whatever
// the worker count.
func TestJoinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for round := 0; round < 400; round++ {
		k := 1 + rng.Intn(6)
		domain := k + 1 + rng.Intn(5)
		// Dense levels survive the subset test, sparse ones exercise its
		// misses; draw the density per round.
		keep := 0.3 + 0.7*rng.Float64()
		all := pickSubsets(k, domain, func(int) bool { return rng.Float64() < keep })
		checkJoin(t, fmt.Sprintf("round %d (k=%d, domain=%d)", round, k, domain), levelOf(k, all...), domain)
	}
}

// TestJoinShardsLargeLevel crosses the size at which Join shards on its own:
// a pair level wide enough, against the sequential result.
func TestJoinShardsLargeLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var pairs [][]transact.Item
	for a := 0; a < 120; a++ {
		for b := a + 1; b < 120; b++ {
			if rng.Intn(10) < 7 {
				pairs = append(pairs, set(transact.Item(a), transact.Item(b)))
			}
		}
	}
	prev := levelOf(2, pairs...)
	if prev.Len() < itemset.JoinParallelMin() {
		t.Fatalf("level of %d sets stays under the sharding size %d", prev.Len(), itemset.JoinParallelMin())
	}
	want := itemset.Join(prev, 1)
	for _, workers := range []int{2, 3, 8} {
		got := itemset.Join(prev, workers)
		if got.Len() != want.Len() {
			t.Fatalf("workers=%d: %d candidates, sequential %d", workers, got.Len(), want.Len())
		}
		for i, it := range want.Items {
			if got.Items[i] != it {
				t.Fatalf("workers=%d: item %d differs from the sequential join", workers, i)
			}
		}
	}
}

// FuzzJoinMatchesBruteForce derives a level from arbitrary bytes: the first
// byte picks the length and the domain, each further byte that hits keeps
// one k-subset of the domain.
func FuzzJoinMatchesBruteForce(f *testing.F) {
	f.Add([]byte{0x12, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0x00, 0x01})
	f.Add([]byte{0x35, 0xaa, 0x55, 0xaa, 0x55, 0x0f, 0xf0})
	f.Add([]byte{0x21, 0xfe, 0xef, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			t.Skip()
		}
		k := 1 + int(data[0]&0x0f)%5
		domain := k + 1 + int(data[0]>>4)%4
		mask := data[1:]
		all := pickSubsets(k, domain, func(n int) bool {
			return len(mask) > 0 && mask[(n/8)%len(mask)]&(1<<(n%8)) != 0
		})
		checkJoin(t, fmt.Sprintf("k=%d domain=%d", k, domain), levelOf(k, all...), domain)
	})
}
