package itemset

import "flowcube/internal/transact"

// refNode and countNode are the pointer-linked candidate trie and its
// recursive merge-walk counter: the reference the flat layout and the
// blocked vertical Count are compared against.
type refNode struct {
	item     transact.Item
	children []*refNode
	count    int64
	leaf     bool
}

func (n *refNode) ensureChild(it transact.Item) *refNode {
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
	c := &refNode{item: it}
	n.children = append(n.children, nil)
	copy(n.children[lo+1:], n.children[lo:])
	n.children[lo] = c
	return c
}

func countNode(n *refNode, tx transact.Transaction) {
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

// RefTrie is the reference counter over a level's candidates.
type RefTrie struct {
	root  refNode
	cands Level
}

// NewRefTrie inserts the candidates one by one into a pointer trie.
func NewRefTrie(cands Level) *RefTrie {
	t := &RefTrie{cands: cands}
	for i := 0; i < cands.Len(); i++ {
		n := &t.root
		for _, it := range cands.Set(i) {
			n = n.ensureChild(it)
		}
		n.leaf = true
	}
	return t
}

// Count applies the recursive reference counter to one transaction.
func (t *RefTrie) Count(tx transact.Transaction) { countNode(&t.root, tx) }

// Counts reports the per-candidate supports, in level order.
func (t *RefTrie) Counts() []int64 {
	out := make([]int64, t.cands.Len())
	for i := range out {
		n := &t.root
		for _, it := range t.cands.Set(i) {
			n = n.ensureChild(it)
		}
		out[i] = n.count
	}
	return out
}

// BlockTx is how many transactions one counting block holds.
const BlockTx = blockTx

// JoinParallelMin reports the level size at which Join starts sharding.
func JoinParallelMin() int { return joinParallelMin }

// SetJoinParallelMinForTest overrides that size so small levels take the
// sharded path. The returned func restores the production value.
func SetJoinParallelMinForTest(n int) (restore func()) {
	old := joinParallelMin
	joinParallelMin = n
	return func() { joinParallelMin = old }
}
