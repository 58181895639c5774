// Package itemset provides the frequent-itemset machinery shared by the
// Shared/Basic miners (§5.1) and the Cubing competitor (§5.2): canonical
// itemset keys, Apriori candidate generation with subset pruning, and a
// candidate trie that counts support of all candidates of one length in a
// single pass over each transaction.
package itemset

import (
	"encoding/binary"
	"sort"
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

// Counted is a frequent itemset with its support count.
type Counted struct {
	Set   []transact.Item
	Count int64
}

// SortCounted orders itemsets lexicographically, for deterministic output.
func SortCounted(sets []Counted) {
	sort.Slice(sets, func(i, j int) bool {
		a, b := sets[i].Set, sets[j].Set
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
}

// Join generates the candidates of length k+1 from the frequent itemsets of
// length k by the classic Apriori join (merge two sets sharing their first
// k-1 items) followed by the subset test: every k-subset of a candidate
// must itself be frequent. prev must all have the same length and be
// internally sorted; the result sets are sorted.
//
// Candidates are carved out of bulk-allocated backing arrays rather than
// allocated one by one, and the subset test reuses a single scratch buffer,
// so a level with a million candidates costs a handful of allocations
// instead of millions.
func Join(prev []Counted) [][]transact.Item {
	if len(prev) == 0 {
		return nil
	}
	k := len(prev[0].Set)
	sets := make([][]transact.Item, len(prev))
	for i, c := range prev {
		sets[i] = c.Set
	}
	sort.Slice(sets, func(i, j int) bool { return lexLess(sets[i], sets[j]) })
	frequent := make(map[string]bool, len(sets))
	for _, s := range sets {
		frequent[Key(s)] = true
	}

	// Backing storage for accepted candidates, grown chunk-wise. Rejected
	// candidates release their reservation, so garbage stays bounded by one
	// chunk regardless of how many candidates the subset test kills.
	chunk := 256 * (k + 1)
	backing := make([]transact.Item, 0, chunk)
	subBuf := make([]transact.Item, k)
	keyBuf := make([]byte, 4*k)

	var out [][]transact.Item
	for i := 0; i < len(sets); i++ {
		for j := i + 1; j < len(sets); j++ {
			if !samePrefix(sets[i], sets[j], k-1) {
				break // sorted order: no further j shares the prefix
			}
			if cap(backing)-len(backing) < k+1 {
				backing = make([]transact.Item, 0, chunk)
			}
			cand := backing[len(backing) : len(backing)+k+1 : len(backing)+k+1]
			backing = backing[:len(backing)+k+1]
			copy(cand, sets[i])
			cand[k] = sets[j][k-1]
			if hasInfrequentSubset(cand, frequent, k, subBuf, keyBuf) {
				backing = backing[:len(backing)-(k+1)]
				continue
			}
			out = append(out, cand)
		}
	}
	return out
}

func lexLess(a, b []transact.Item) bool {
	for k := 0; k < len(a) && k < len(b); k++ {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return len(a) < len(b)
}

func samePrefix(a, b []transact.Item, n int) bool {
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// hasInfrequentSubset checks every k-subset of the (k+1)-candidate. The two
// subsets obtained by dropping one of the joined tails are the parents and
// are frequent by construction, so only subsets dropping an earlier
// position need checking. subBuf (k items) and keyBuf (4k bytes) are caller
// scratch; the map probe via string(keyBuf) does not allocate.
func hasInfrequentSubset(cand []transact.Item, frequent map[string]bool, k int, subBuf []transact.Item, keyBuf []byte) bool {
	for drop := 0; drop < k-1; drop++ {
		copy(subBuf, cand[:drop])
		copy(subBuf[drop:], cand[drop+1:])
		for i, it := range subBuf {
			binary.LittleEndian.PutUint32(keyBuf[4*i:], uint32(it))
		}
		if !frequent[string(keyBuf)] {
			return true
		}
	}
	return false
}

// trieNode is the pointer-linked builder node. Insert grows this structure;
// counting runs over the flattened form (see flatTrie), which is rebuilt
// lazily whenever the trie changed since the last freeze.
type trieNode struct {
	item     transact.Item
	children []*trieNode
	count    int64 // authoritative only while the trie is thawed
	leaf     bool
	id       int32 // flat node index; valid only while frozen
}

func (n *trieNode) ensureChild(it transact.Item) *trieNode {
	lo, hi := 0, len(n.children)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.children[mid].item < it {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(n.children) && n.children[lo].item == it {
		return n.children[lo]
	}
	c := &trieNode{item: it}
	n.children = append(n.children, nil)
	copy(n.children[lo+1:], n.children[lo:])
	n.children[lo] = c
	return c
}

// flatTrie is the counting layout: the builder trie flattened into
// contiguous index-based arrays, in breadth-first order so that every
// node's children occupy one consecutive, item-sorted range. The merge-walk
// against a sorted transaction then streams over items[childLo[n]:childLo[n+1]]
// instead of chasing child pointers, and supports live in a dense counts
// slice indexed by node id — which is what lets parallel counting hand each
// worker a private count buffer and merge them after the scan.
//
// BFS order makes the children ranges consecutive, so one childLo slice with
// a trailing sentinel encodes every range: node n's children are
// [childLo[n], childLo[n+1]).
type flatTrie struct {
	items   []transact.Item
	childLo []int32 // len(items)+1 entries; childLo[len(items)] is the sentinel
	leaf    []bool
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
// exact while interior nodes accumulate values nobody reads (Walk, Frequent,
// and thaw only look at end nodes). That keeps the leaf check — and the leaf
// array's cache stream — out of the hot loop. Childless matches are counted
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

// Trie counts support for a set of same-length candidates. Insert all
// candidates, call Count once per transaction, then harvest with Walk.
type Trie struct {
	root trieNode
	size int
	flat *flatTrie
	// Scratch for the sequential Count path: the transaction bitmap and the
	// traversal stack.
	words []uint64
	stack []int32
}

// NewTrie returns an empty candidate trie.
func NewTrie() *Trie { return &Trie{} }

// Size reports the number of inserted candidates.
func (t *Trie) Size() int { return t.size }

// Insert adds a sorted candidate itemset.
func (t *Trie) Insert(set []transact.Item) {
	t.thaw()
	n := &t.root
	for _, it := range set {
		n = n.ensureChild(it)
	}
	if !n.leaf {
		n.leaf = true
		t.size++
	}
}

// freeze flattens the builder trie into the counting layout, seeding the
// dense counts from whatever the pointer nodes accumulated so far. The flat
// form is cached until the next Insert.
func (t *Trie) freeze() *flatTrie {
	if t.flat != nil {
		return t.flat
	}
	f := &flatTrie{}
	t.root.id = 0
	f.items = append(f.items, t.root.item)
	f.leaf = append(f.leaf, t.root.leaf)
	f.counts = append(f.counts, t.root.count)
	queue := []*trieNode{&t.root}
	for head := 0; head < len(queue); head++ {
		n := queue[head]
		f.childLo = append(f.childLo, int32(len(queue)))
		for _, c := range n.children {
			c.id = int32(len(queue))
			queue = append(queue, c)
			f.items = append(f.items, c.item)
			f.leaf = append(f.leaf, c.leaf)
			f.counts = append(f.counts, c.count)
		}
	}
	f.childLo = append(f.childLo, int32(len(queue))) // sentinel
	maxItem := transact.Item(0)
	for _, it := range f.items[1:] {
		if it > maxItem {
			maxItem = it
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
	t.flat = f
	return f
}

// thaw folds the flat counts back into the pointer nodes and drops the flat
// form, so a subsequent Insert (which changes the node set) cannot lose
// counts already accumulated. Only candidate-end nodes are folded: interior
// flat counts hold the unconditional visit tallies the merge-walk leaves
// behind, while interior pointer nodes stay at zero — which is what keeps a
// later Insert that turns an interior node into a candidate end starting
// from a clean count.
func (t *Trie) thaw() {
	if t.flat == nil {
		return
	}
	counts := t.flat.counts
	var rec func(n *trieNode)
	rec = func(n *trieNode) {
		if n.leaf {
			n.count = counts[n.id]
		}
		for _, c := range n.children {
			rec(c)
		}
	}
	rec(&t.root)
	t.flat = nil
}

// Count increments the support of every inserted candidate contained in the
// sorted transaction. Not safe to call concurrently; use CountParallel for
// that.
func (t *Trie) Count(tx transact.Transaction) {
	f := t.freeze()
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
	f := t.freeze()
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

// countNode is the recursive reference counter over the pointer trie. The
// production path is the iterative merge-walk in flatTrie.count; this stays
// as the oracle the property tests compare against.
func countNode(n *trieNode, tx transact.Transaction) {
	if n.leaf {
		n.count++
	}
	if len(n.children) == 0 || len(tx) == 0 {
		return
	}
	// Merge-walk the sorted transaction against the sorted children.
	ci, ti := 0, 0
	for ci < len(n.children) && ti < len(tx) {
		c := n.children[ci]
		switch {
		case c.item < tx[ti]:
			ci++
		case c.item > tx[ti]:
			ti++
		default:
			countNode(c, tx[ti+1:])
			ci++
			ti++
		}
	}
}

// Walk visits every candidate with its accumulated count, in lexicographic
// order (children are stored item-sorted, so a depth-first walk of the flat
// form is lexicographic). The set slice passed to fn is reused across
// calls; copy it to retain.
func (t *Trie) Walk(fn func(set []transact.Item, count int64)) {
	f := t.freeze()
	var buf []transact.Item
	var rec func(n int32)
	rec = func(n int32) {
		if f.leaf[n] {
			fn(buf, f.counts[n])
		}
		for ci := f.childLo[n]; ci < f.childLo[n+1]; ci++ {
			buf = append(buf, f.items[ci])
			rec(ci)
			buf = buf[:len(buf)-1]
		}
	}
	rec(0)
}

// Frequent harvests the candidates whose count meets minCount, copying the
// sets.
func (t *Trie) Frequent(minCount int64) []Counted {
	var out []Counted
	t.Walk(func(set []transact.Item, count int64) {
		if count >= minCount {
			out = append(out, Counted{Set: append([]transact.Item(nil), set...), Count: count})
		}
	})
	return out
}
