package core

import (
	"hash/maphash"

	"flowcube/internal/hierarchy"
	"flowcube/internal/pathdb"
)

// deltaLedger is the auxiliary sub-δ count store: for every materialized
// item level, the exact path count of every dimension-value combination
// that occurs in the database but falls below the iceberg threshold, so
// ApplyDelta decides cell admission — base count plus batch count crossing
// δ — in O(1) per touched combination instead of a base-database scan.
// COUNT is distributive, so the ledger is a function of the database and
// δ: no cube is built, loaded or merged with one, and ApplyDelta derives it
// (deriveLedger) on a cube's first append.
//
// A ledger belongs to one cube generation and is persistent in the
// functional sense: each level's entries sit in a hash trie whose nodes
// carry the tag of the generation that may write them, fork shares every
// node, and a write copies the few nodes between the root and one leaf. A
// commit therefore pays for the combinations its batch touches, and the
// generation it forked from keeps its counts.
type deltaLedger struct {
	levels map[string]*ledgerLevel
	owner  uint32
}

type ledgerLevel struct {
	item  ItemLevel
	root  *ledgerNode
	n     int
	owner uint32
}

// ledgerNode is a trie node: interior when kids is set, else a leaf holding
// the entries whose hashes share the nibbles that lead to it.
type ledgerNode struct {
	owner   uint32
	kids    *[1 << ledgerNibble]*ledgerNode
	entries []*ledgerEntry
}

// ledgerEntry is immutable once stored; a changed count is a new entry.
type ledgerEntry struct {
	id     CellID
	values []hierarchy.NodeID
	count  int64
}

const (
	ledgerNibble   = 4
	ledgerLeafMax  = 8 // a fuller leaf splits, while hash bits remain
	ledgerMaxDepth = 64 / ledgerNibble
)

// ledgerSeed keys the trie's hash. The trie's shape never reaches an
// output, so a per-process seed is fine.
var ledgerSeed = maphash.MakeSeed()

// fork returns the ledger of the next generation: the same levels and trie
// nodes, none of them writable under the new tag. nil stays nil.
func (l *deltaLedger) fork(owner uint32) *deltaLedger {
	if l == nil {
		return nil
	}
	f := &deltaLedger{levels: make(map[string]*ledgerLevel, len(l.levels)), owner: owner}
	for k, lv := range l.levels {
		f.levels[k] = lv
	}
	return f
}

// own returns il's level writable by this ledger, creating it when absent.
func (l *deltaLedger) own(il ItemLevel) *ledgerLevel {
	key := il.Key()
	lv := l.levels[key]
	switch {
	case lv == nil:
		lv = &ledgerLevel{item: append(ItemLevel(nil), il...), owner: l.owner}
	case lv.owner != l.owner:
		c := *lv
		c.owner = l.owner
		lv = &c
	default:
		return lv
	}
	l.levels[key] = lv
	return lv
}

// count reports the recorded sub-δ count of a combination (0 when absent —
// absent means the combination never occurred below threshold).
func (l *deltaLedger) count(il ItemLevel, values []hierarchy.NodeID) int64 {
	if e := l.levels[il.Key()].find(MakeCellID(values)); e != nil {
		return e.count
	}
	return 0
}

// bump adds n to a combination's count, creating the entry if needed.
func (l *deltaLedger) bump(il ItemLevel, values []hierarchy.NodeID, n int64) {
	lv := l.own(il)
	e := &ledgerEntry{id: MakeCellID(values), count: n}
	if old := lv.find(e.id); old != nil {
		e.values, e.count = old.values, old.count+n
	} else {
		e.values = append([]hierarchy.NodeID(nil), values...)
	}
	lv.put(e)
}

// remove drops a combination (called when it crosses δ and becomes a cell).
func (l *deltaLedger) remove(il ItemLevel, values []hierarchy.NodeID) {
	id := MakeCellID(values)
	if l.levels[il.Key()].find(id) == nil {
		return
	}
	lv := l.own(il)
	leaf, _ := lv.leaf(id)
	for i, e := range leaf.entries {
		if e.id == id {
			leaf.entries = append(leaf.entries[:i], leaf.entries[i+1:]...)
			lv.n--
			return
		}
	}
}

// size reports the total number of sub-δ entries across item levels.
func (l *deltaLedger) size() int {
	if l == nil {
		return 0
	}
	n := 0
	for _, lv := range l.levels {
		n += lv.n
	}
	return n
}

// find returns the entry of a combination, or nil; a nil level has none.
func (lv *ledgerLevel) find(id CellID) *ledgerEntry {
	if lv == nil {
		return nil
	}
	h := maphash.String(ledgerSeed, string(id))
	n := lv.root
	for n != nil && n.kids != nil {
		n = n.kids[h&(1<<ledgerNibble-1)]
		h >>= ledgerNibble
	}
	if n != nil {
		for _, e := range n.entries {
			if e.id == id {
				return e
			}
		}
	}
	return nil
}

// leaf returns the leaf id belongs in and its depth, after making every
// node from the root to it the level's own: missing nodes are created,
// nodes of an older generation are copied (an interior node's child table,
// a leaf's entry list) and the copy hung in place of the original.
func (lv *ledgerLevel) leaf(id CellID) (*ledgerNode, int) {
	h := maphash.String(ledgerSeed, string(id))
	slot := &lv.root
	for depth := 0; ; depth++ {
		n := *slot
		switch {
		case n == nil:
			n = &ledgerNode{owner: lv.owner}
		case n.owner != lv.owner:
			c := &ledgerNode{owner: lv.owner, entries: append([]*ledgerEntry(nil), n.entries...)}
			if n.kids != nil {
				kids := *n.kids
				c.kids = &kids
			}
			n = c
		}
		*slot = n
		if n.kids == nil {
			return n, depth
		}
		slot = &n.kids[h&(1<<ledgerNibble-1)]
		h >>= ledgerNibble
	}
}

// put stores e under its id, replacing any entry already there. The level
// must be its ledger's own (deltaLedger.own, or freshly made).
func (lv *ledgerLevel) put(e *ledgerEntry) {
	leaf, depth := lv.leaf(e.id)
	for i, old := range leaf.entries {
		if old.id == e.id {
			leaf.entries[i] = e
			return
		}
	}
	leaf.entries = append(leaf.entries, e)
	lv.n++
	if len(leaf.entries) <= ledgerLeafMax || depth == ledgerMaxDepth {
		return
	}
	// Split: the leaf turns interior and hands each entry to the child its
	// next hash nibble names.
	entries := leaf.entries
	leaf.entries, leaf.kids = nil, new([1 << ledgerNibble]*ledgerNode)
	for _, e := range entries {
		i := maphash.String(ledgerSeed, string(e.id)) >> (ledgerNibble * depth) & (1<<ledgerNibble - 1)
		if leaf.kids[i] == nil {
			leaf.kids[i] = &ledgerNode{owner: lv.owner}
		}
		leaf.kids[i].entries = append(leaf.kids[i].entries, e)
	}
}

// each calls fn on every entry below n, in trie order.
func (n *ledgerNode) each(fn func(*ledgerEntry)) {
	if n == nil {
		return
	}
	for _, e := range n.entries {
		fn(e)
	}
	if n.kids != nil {
		for _, k := range n.kids {
			k.each(fn)
		}
	}
}

// deriveLedger counts, per materialized item level, the records of db whose
// combination is no cell of the cube, and keeps the counts below δ: the
// cube's sub-δ ledger over db, owned by its generation and non-nil even
// when empty. Every cell counts at least δ records and every combination
// that does is dropped, so it counts every combination and reads no cell,
// directory or section. The records split into contiguous chunks, one per
// worker, each counting on its own; levels are independent, so their sums
// and tries spread across workers too.
func (c *Cube) deriveLedger(db *pathdb.DB) *deltaLedger {
	levels := c.levelGroups()
	n := db.Len()
	chunks := max(min(c.Config.Workers, n), 1)
	size := (n + chunks - 1) / chunks
	tallies := make([][]tally, chunks)
	// Made before the workers start: the first router call caches the
	// cube's routes.
	routers := make([]*recordRouter, chunks)
	for i := range routers {
		routers[i] = c.router()
	}
	c.forEach(chunks, func(i int) {
		counts := make([]tally, len(levels))
		for li := range counts {
			counts[li].at = make(map[CellID]int32)
		}
		r, lo := routers[i], min(i*size, n)
		for tid := lo; tid < min(lo+size, n); tid++ {
			r.route(db.Records[tid].Dims)
			for li := range counts {
				id, _ := r.cell(li)
				if k, ok := counts[li].at[CellID(id)]; ok {
					counts[li].n[k]++
				} else {
					counts[li].add(CellID(id), 1)
				}
			}
		}
		tallies[i] = counts
	})

	built := make([]*ledgerLevel, len(levels))
	c.forEach(len(levels), func(li int) {
		sum := &tallies[0][li]
		for _, counts := range tallies[1:] {
			for id, k := range counts[li].at {
				sum.add(id, counts[li].n[k])
			}
		}
		lv := &ledgerLevel{item: append(ItemLevel(nil), levels[li].Item...), owner: c.gen}
		for id, k := range sum.at {
			if count := sum.n[k]; count < c.minCount {
				lv.put(&ledgerEntry{id: id, values: id.values(), count: count})
			}
		}
		built[li] = lv
	})
	l := &deltaLedger{levels: make(map[string]*ledgerLevel, len(built)), owner: c.gen}
	for _, lv := range built {
		l.levels[lv.item.Key()] = lv
	}
	return l
}

// tally counts an item level's records per combination. at indexes n by
// combination, so a count allocates only a new combination's
// key, and the counts hold no pointers for the collector to scan.
type tally struct {
	at map[CellID]int32
	n  []int64
}

// add counts n more records of combination id.
func (t *tally) add(id CellID, n int64) {
	if k, ok := t.at[id]; ok {
		t.n[k] += n
		return
	}
	t.at[id] = int32(len(t.n))
	t.n = append(t.n, n)
}
