// Package itemset provides the frequent-itemset machinery shared by the
// Shared/Basic miners (§5.1) and the Cubing competitor (§5.2): the flat
// sorted Level every frequent or candidate set of one length lives in,
// Apriori candidate generation with subset pruning over it, and a candidate
// trie laid out from it that counts support of all candidates of one length
// in one blocked vertical scan of the transactions.
package itemset

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

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

// blockTx is how many transactions one counting block holds: 64 bitmap words
// per item, so a block's rows stay cache-resident while its subtree is walked.
const blockTx = 4096

// Trie counts support for the candidates of one Level. Build it with NewTrie,
// call Count, then read Counts or harvest with Frequent.
//
// The layout is the candidate trie as contiguous index-based arrays in
// breadth-first order, so that every node's children occupy one consecutive,
// item-sorted range: node n's children are [childLo[n], childLo[n+1]), with
// a trailing sentinel. Every candidate ends at depth K, and those childless
// nodes are the last len(counts) ids, in level order.
type Trie struct {
	cands   Level
	childLo []int32 // one entry per node plus the sentinel
	// slot is each node's item as a dense index into the per-block item
	// bitmaps; dense maps an item to its slot (-1 for items no candidate
	// holds), and slots is how many distinct items the trie holds.
	slot   []int32
	dense  []int32
	slots  int
	counts []int64 // per candidate, in level order
}

// NewTrie lays the sorted, duplicate-free candidates of a non-empty level
// straight into the counting layout. In a sorted level, candidate i opens a new trie
// node at every depth past the first position where it differs from
// candidate i-1, and breadth-first order numbers the nodes of one depth in
// exactly that order of appearance: one pass sizes the depths, a second
// writes each node's item slot and first-child index at its final id. The nodes
// of the last depth are the candidates in level order, so the node ids from
// leaf0 on index counts directly. Candidates out of order are a
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
	maxItem := transact.Item(0)
	for i := 0; i < n; i++ {
		maxItem = max(maxItem, cands.Set(i)[k-1]) // sets are sorted: the last item is the largest
	}
	t := &Trie{
		cands:   cands,
		childLo: make([]int32, nodes+1),
		slot:    make([]int32, nodes),
		dense:   make([]int32, maxItem+1),
		counts:  make([]int64, n),
	}
	for i := range t.dense {
		t.dense[i] = -1
	}
	t.childLo[0] = 1
	t.childLo[nodes] = int32(nodes)
	for i := 0; i < n; i++ {
		set := cands.Set(i)
		for d := firstDiff(i) + 1; d <= k; d++ {
			id := next[d]
			next[d]++
			s := &t.dense[set[d-1]]
			if *s < 0 {
				*s = int32(t.slots)
				t.slots++
			}
			t.slot[id] = *s
			t.childLo[id] = int32(next[d+1])
		}
	}
	return t
}

// Count adds the support every candidate has in txs, each a sorted
// transaction. It scans vertically: txs is cut into blocks of blockTx
// transactions, each block is scattered into one bitmap per trie item, and
// the trie is walked depth first, an interior node keeping parent AND item
// in its depth's row (skipping its subtree when that row is empty) and a
// candidate end adding the popcount of parent AND item to its support.
//
// A unit of work is a block and a range of the root's children; when blocks
// alone cannot keep the workers busy the root's children are split into
// ranges of about equal candidate counts. Each of up to workers goroutines
// counts into a private shard, and the shards are summed in worker order
// after the scan; integer addition makes every split exact, so the counts are
// identical at any worker count.
func (t *Trie) Count(txs []transact.Transaction, workers int) {
	if len(txs) == 0 || len(t.counts) == 0 {
		return
	}
	blocks := (len(txs) + blockTx - 1) / blockTx
	parts := [][2]int32{{t.childLo[0], t.childLo[1]}}
	if workers > 1 && blocks < 4*workers {
		parts = t.split((4*workers + blocks - 1) / blocks)
	}
	units := blocks * len(parts)
	workers = min(workers, units)
	run := func(c *counter, u int) {
		c.scatter(txs, u/len(parts))
		p := parts[u%len(parts)]
		c.walk(p[0], p[1], 1, c.rows[:c.w], 0)
	}
	if workers <= 1 {
		c := t.newCounter(len(txs), t.counts)
		for u := 0; u < units; u++ {
			run(c, u)
		}
		return
	}
	shards := make([]*counter, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range shards {
		c := t.newCounter(len(txs), make([]int64, len(t.counts)))
		shards[w] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := int(next.Add(1) - 1); u < units; u = int(next.Add(1) - 1) {
				run(c, u)
			}
		}()
	}
	wg.Wait()
	for _, c := range shards {
		for i, v := range c.counts {
			t.counts[i] += v
		}
	}
}

// split cuts the root's children into at most n consecutive ranges holding
// about equal numbers of candidates.
func (t *Trie) split(n int) [][2]int32 {
	lo, hi := t.childLo[0], t.childLo[1]
	n = min(n, int(hi-lo))
	leaf0 := t.leaf0()
	parts := make([][2]int32, 0, n)
	for c := lo + 1; c < hi && len(parts) < n-1; c++ {
		first := c // c's first descendant at depth K
		for d := 1; d < t.cands.K; d++ {
			first = t.childLo[first]
		}
		if int(first-leaf0)*n >= (len(parts)+1)*len(t.counts) {
			parts = append(parts, [2]int32{lo, c})
			lo = c
		}
	}
	return append(parts, [2]int32{lo, hi})
}

// leaf0 is the node id of the first candidate end.
func (t *Trie) leaf0() int32 { return int32(len(t.childLo) - 1 - len(t.counts)) }

// counter is one worker's scratch: the scattered block's item bitmaps (w
// words per trie item), one row per trie depth (row 0 is all ones, the
// root's), and the count shard it adds into.
type counter struct {
	t      *Trie
	bits   []uint64
	rows   []uint64
	w      int
	block  int // the block bits holds, -1 before the first
	counts []int64
}

// newCounter sizes a counter's scratch for blocks of up to n transactions.
func (t *Trie) newCounter(n int, counts []int64) *counter {
	w := (min(n, blockTx) + 63) >> 6
	return &counter{
		t:      t,
		bits:   make([]uint64, t.slots*w),
		rows:   make([]uint64, t.cands.K*w),
		block:  -1,
		counts: counts,
	}
}

// scatter loads block b of txs into the item bitmaps, unless they hold it.
func (c *counter) scatter(txs []transact.Transaction, b int) {
	if c.block == b {
		return
	}
	c.block = b
	txs = txs[b*blockTx : min(len(txs), (b+1)*blockTx)]
	c.w = (len(txs) + 63) >> 6
	cols, w, dense := c.bits[:c.t.slots*c.w], c.w, c.t.dense
	clear(cols)
	for i, tx := range txs {
		word, bit := i>>6, uint64(1)<<(i&63)
		for _, it := range tx {
			if int(it) >= len(dense) {
				break // sorted: no later item is in the trie either
			}
			if s := dense[it]; s >= 0 {
				cols[int(s)*w+word] |= bit
			}
		}
	}
	root := c.rows[:w]
	for i := range root {
		root[i] = ^uint64(0)
	}
}

// walk visits the nodes [lo, hi) at the given depth, whose parent's
// transaction row is parent: words [off, off+len(parent)) of the block, every
// word outside them zero.
func (c *counter) walk(lo, hi int32, depth int, parent []uint64, off int) {
	t, w := c.t, c.w
	if depth == t.cands.K {
		leaf0 := t.leaf0()
		for n := lo; n < hi; n++ {
			col := c.bits[int(t.slot[n])*w+off:][:len(parent)]
			s := 0
			for i, x := range parent {
				s += bits.OnesCount64(x & col[i])
			}
			c.counts[n-leaf0] += int64(s)
		}
		return
	}
	row := c.rows[depth*w : (depth+1)*w]
	for n := lo; n < hi; n++ {
		col := c.bits[int(t.slot[n])*w+off:][:len(parent)]
		var any uint64
		for i, x := range parent {
			v := x & col[i]
			row[off+i] = v
			any |= v
		}
		if any == 0 {
			continue
		}
		first, last := off, off+len(parent)-1
		for row[first] == 0 {
			first++
		}
		for row[last] == 0 {
			last--
		}
		c.walk(t.childLo[n], t.childLo[n+1], depth+1, row[first:last+1], first)
	}
}

// Counts returns the support counted so far for every candidate, in level
// order, aliasing the trie's count buffer.
func (t *Trie) Counts() []int64 {
	return t.counts
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
