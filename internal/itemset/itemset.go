// Package itemset provides the frequent-itemset machinery shared by the
// Shared/Basic miners (§5.1) and the Cubing competitor (§5.2): the flat
// sorted Level every frequent or candidate set of one length lives in,
// Apriori candidate generation with subset pruning over it, and a candidate
// trie laid out from it that counts support of all candidates of one length
// in a single pass over each transaction.
package itemset

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"flowcube/internal/transact"
)

// Key packs a sorted itemset into a compact string usable as a map key.
func Key(set []transact.Item) string {
	b := make([]byte, 4*len(set))
	for i, it := range set {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(it))
	}
	return string(b)
}

// FromKey unpacks a Key back into an itemset.
func FromKey(key string) []transact.Item {
	set := make([]transact.Item, len(key)/4)
	for i := range set {
		set[i] = transact.Item(binary.LittleEndian.Uint32([]byte(key[4*i : 4*i+4])))
	}
	return set
}

// flatTrie is the counting layout: the candidate trie as contiguous
// index-based arrays, in breadth-first order so that every node's children
// occupy one consecutive, item-sorted range. The merge-walk against a sorted
// transaction then streams over items[childLo[n]:childLo[n+1]] instead of
// chasing child pointers, and supports live in a dense counts slice indexed
// by node id — which is what lets parallel counting hand each worker a
// private count buffer and merge them after the scan.
//
// BFS order makes the children ranges consecutive, so one childLo slice with
// a trailing sentinel encodes every range: node n's children are
// [childLo[n], childLo[n+1]).
type flatTrie struct {
	items   []transact.Item
	childLo []int32 // len(items)+1 entries; childLo[len(items)] is the sentinel
	counts  []int64
	// words is the transaction-bitmap size (in uint64 words) covering the
	// largest item in the trie; items beyond it cannot match any candidate.
	words int
	// rootChild maps an item to the root child carrying it (-1 if none),
	// indexed 0..words*64. The root's child range spans every distinct first
	// item — usually far more entries than one transaction has items — so
	// the root step walks the transaction through this index instead of
	// scanning the range.
	rootChild []int32
}

// count counts one transaction. Because candidates and transactions are both
// sorted sets, containment needs no positional merge: the transaction is
// scattered into a bitmap (words, caller scratch, zeroed on entry and on
// return), and each node visit reduces to scanning its child range with an
// O(1) membership test per child — no transaction-suffix scan, no
// (node, position) frames, just node ids on the explicit stack.
//
// The bitmap scan is O(children) per visit, which is the wrong side of the
// intersection when a node's child range dwarfs the transaction — the
// level-2 trie of a dense candidate set gives every first item hundreds of
// children while a transaction holds a few dozen items. Ranges wider than
// wideRangeFactor× the transaction flip to intersecting from the
// transaction side instead: each transaction item binary-searches the
// (item-sorted) child range with a monotonically advancing lower bound,
// O(|tx|·log children) per visit. Both strategies visit the same matches,
// so counts are identical either way.
//
// Every visited node is counted unconditionally: reaching a node means the
// transaction contains its prefix, so counts at candidate-end nodes are
// exact while interior nodes accumulate values nobody reads (Counts and
// Frequent only look at end nodes). That keeps a leaf check out of the hot
// loop. Childless matches are counted
// inline instead of round-tripping through the stack; at the deepest level
// of a candidate trie that is nearly every match. stack is caller scratch,
// returned for reuse.
// wideRangeFactor is the child-range-to-transaction size ratio above which
// count intersects from the transaction side instead of bit-testing every
// child. Below it the branch-free bitmap scan wins on constants.
const wideRangeFactor = 4

func (f *flatTrie) count(tx transact.Transaction, counts []int64, words []uint64, stack []int32) []int32 {
	limit := transact.Item(f.words << 6)
	for _, it := range tx {
		if it < limit {
			words[int(it)>>6] |= 1 << (uint32(it) & 63)
		}
	}
	items := f.items
	childLo := f.childLo
	// Root step: walk the transaction through the direct item→child index
	// rather than bit-testing the root's whole child range.
	counts[0]++
	stack = stack[:0]
	for _, it := range tx {
		if it >= limit {
			continue
		}
		ci := f.rootChild[it]
		if ci < 0 {
			continue
		}
		if childLo[ci] == childLo[ci+1] {
			counts[ci]++ // childless: necessarily a candidate end
		} else {
			stack = append(stack, ci)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		counts[n]++
		lo, hi := childLo[n], childLo[n+1]
		if int(hi-lo) > wideRangeFactor*len(tx) {
			// Wide range: intersect from the transaction side.
			p := lo
			for _, it := range tx {
				if p >= hi {
					break
				}
				if it < items[p] {
					continue
				}
				if it > items[p] {
					l, r := p+1, hi
					for l < r {
						m := l + (r-l)/2
						if items[m] < it {
							l = m + 1
						} else {
							r = m
						}
					}
					p = l
					if p >= hi || items[p] != it {
						continue
					}
				}
				if childLo[p] == childLo[p+1] {
					counts[p]++ // childless: necessarily a candidate end
				} else {
					stack = append(stack, p)
				}
				p++
			}
			continue
		}
		for ci := lo; ci < hi; ci++ {
			it := items[ci]
			if words[int(it)>>6]&(1<<(uint32(it)&63)) == 0 {
				continue
			}
			if childLo[ci] == childLo[ci+1] {
				counts[ci]++ // childless: necessarily a candidate end
			} else {
				stack = append(stack, ci)
			}
		}
	}
	for _, it := range tx {
		if it < limit {
			words[int(it)>>6] = 0
		}
	}
	return stack
}

// Trie counts support for the candidates of one Level. Build it with
// NewTrie, call Count once per transaction (or CountParallel once), then read
// Counts or harvest with Frequent.
type Trie struct {
	cands Level
	flat  flatTrie
	// Scratch for the sequential Count path: the transaction bitmap and the
	// traversal stack.
	words []uint64
	stack []int32
}

// NewTrie lays the sorted, duplicate-free candidates of a non-empty level
// straight into the counting layout. In a sorted level, candidate i opens a new trie
// node at every depth past the first position where it differs from
// candidate i-1, and breadth-first order numbers the nodes of one depth in
// exactly that order of appearance: one pass sizes the depths, a second
// writes each node's item and first-child index at its final id. The nodes
// of the last depth are the candidates in level order, so per-candidate
// supports are the tail of the count buffer. Candidates out of order are a
// caller bug and panic, as does a level whose trie outgrows the int32 node
// index.
func NewTrie(cands Level) *Trie {
	n, k := cands.Len(), cands.K
	// firstDiff reports the first position where candidate i differs from its
	// predecessor (0 for the first).
	firstDiff := func(i int) int {
		if i == 0 {
			return 0
		}
		a, b := cands.Set(i-1), cands.Set(i)
		for d := range a {
			if a[d] != b[d] {
				if a[d] > b[d] {
					break
				}
				return d
			}
		}
		panic(fmt.Sprintf("itemset: candidates %v, %v not in strictly ascending order", a, b))
	}
	// next[d] becomes the id of the next node to open at depth d: depth d
	// holds one node per candidate differing from its predecessor before
	// position d.
	next := make([]int, k+2)
	for i := 0; i < n; i++ {
		next[firstDiff(i)+1]++
	}
	width := 0
	for d, start := 1, 1; d <= k; d++ {
		width += next[d]
		next[d] = start
		start += width
	}
	nodes := next[k] + n
	next[k+1] = nodes // the last depth has no children: empty ranges at the sentinel
	if nodes > math.MaxInt32 {
		panic(fmt.Sprintf("itemset: %d candidates of length %d need %d trie nodes, beyond the int32 index", n, k, nodes))
	}
	t := &Trie{cands: cands}
	f := &t.flat
	f.items = make([]transact.Item, nodes)
	f.childLo = make([]int32, nodes+1)
	f.counts = make([]int64, nodes)
	f.childLo[0] = 1
	f.childLo[nodes] = int32(nodes)
	maxItem := transact.Item(0)
	for i := 0; i < n; i++ {
		set := cands.Set(i)
		for d := firstDiff(i) + 1; d <= k; d++ {
			id := next[d]
			next[d]++
			f.items[id] = set[d-1]
			f.childLo[id] = int32(next[d+1])
		}
		if set[k-1] > maxItem { // sets are sorted: the last item is the largest
			maxItem = set[k-1]
		}
	}
	f.words = int(maxItem)>>6 + 1
	f.rootChild = make([]int32, f.words<<6)
	for i := range f.rootChild {
		f.rootChild[i] = -1
	}
	for ci := f.childLo[0]; ci < f.childLo[1]; ci++ {
		f.rootChild[f.items[ci]] = ci
	}
	return t
}

// Count increments the support of every candidate contained in the sorted
// transaction. Not safe to call concurrently; use CountParallel for that.
func (t *Trie) Count(tx transact.Transaction) {
	f := &t.flat
	if len(t.words) < f.words {
		t.words = make([]uint64, f.words)
	}
	t.stack = f.count(tx, f.counts, t.words, t.stack)
}

// CountParallel counts the whole transaction set across the given number of
// workers. Each worker scans a contiguous transaction chunk into a private
// count buffer indexed by flat node id — no shared writes, no atomics, no
// false sharing on hot leaves — and the buffers are merged in worker order
// after the scan. Integer addition makes the merge exact, so the result is
// identical to sequential Count over every transaction. workers <= 1
// degrades to the serial path.
func (t *Trie) CountParallel(txs []transact.Transaction, workers int) {
	if workers <= 1 || len(txs) < 2*workers {
		for _, tx := range txs {
			t.Count(tx)
		}
		return
	}
	f := &t.flat
	shards := make([][]int64, workers)
	var wg sync.WaitGroup
	chunk := (len(txs) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= len(txs) {
			break
		}
		hi := lo + chunk
		if hi > len(txs) {
			hi = len(txs)
		}
		wg.Add(1)
		go func(w int, part []transact.Transaction) {
			defer wg.Done()
			counts := make([]int64, len(f.counts))
			words := make([]uint64, f.words)
			var stack []int32
			for _, tx := range part {
				stack = f.count(tx, counts, words, stack)
			}
			shards[w] = counts
		}(w, txs[lo:hi])
	}
	wg.Wait()
	for _, shard := range shards {
		if shard == nil {
			continue
		}
		for i, v := range shard {
			if v != 0 {
				f.counts[i] += v
			}
		}
	}
}

// Counts returns the support counted so far for every candidate, in level
// order, aliasing the trie's count buffer.
func (t *Trie) Counts() []int64 {
	return t.flat.counts[len(t.flat.counts)-t.cands.Len():]
}

// Frequent harvests the candidates whose count meets minCount into a new
// level, in order.
func (t *Trie) Frequent(minCount int64) Level {
	counts := t.Counts()
	n := 0
	for _, c := range counts {
		if c >= minCount {
			n++
		}
	}
	k := t.cands.K
	out := Level{K: k, Items: make([]transact.Item, 0, n*k), Counts: make([]int64, 0, n)}
	for i, c := range counts {
		if c >= minCount {
			out.Append(t.cands.Set(i), c)
		}
	}
	return out
}
