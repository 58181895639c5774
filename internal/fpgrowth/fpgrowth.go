// Package fpgrowth implements the FP-growth frequent-itemset algorithm
// (Han, Pei & Yin, SIGMOD 2000) over encoded transactions.
//
// The paper's flowgraph construction (§3, step 3) allows "any existing
// frequent pattern mining algorithm" for the per-cell segment mining; this
// package provides the standard pattern-growth alternative to the Apriori
// substrate in internal/itemset, whose Level type it emits into; the
// restricted re-miner of internal/incr is its caller. FP-growth avoids
// candidate generation entirely: it compresses the transactions into a
// prefix tree ordered by descending item frequency and recursively mines
// conditional trees.
package fpgrowth

import (
	"sort"

	"flowcube/internal/itemset"
	"flowcube/internal/transact"
)

type node struct {
	item     transact.Item
	count    int64
	parent   *node
	children map[transact.Item]*node
	next     *node // header-table chain of nodes carrying the same item
}

type header struct {
	item  transact.Item
	count int64
	head  *node
}

type tree struct {
	root    node
	headers []header // ordered by ascending total count (mining order)
	byItem  map[transact.Item]int
}

// order maps each frequent item to its rank: more frequent items come
// first on tree paths, which maximizes prefix sharing.
func buildTree(txs []transact.Transaction, counts map[transact.Item]int64, minCount int64) *tree {
	type ic struct {
		item  transact.Item
		count int64
	}
	var freq []ic
	for it, n := range counts {
		if n >= minCount {
			freq = append(freq, ic{it, n})
		}
	}
	sort.Slice(freq, func(i, j int) bool {
		if freq[i].count != freq[j].count {
			return freq[i].count > freq[j].count
		}
		return freq[i].item < freq[j].item
	})
	rank := make(map[transact.Item]int, len(freq))
	for i, f := range freq {
		rank[f.item] = i
	}

	t := &tree{
		root:   node{children: make(map[transact.Item]*node)},
		byItem: make(map[transact.Item]int, len(freq)),
	}
	// Headers in reverse frequency order: mining proceeds from the least
	// frequent item upward.
	t.headers = make([]header, len(freq))
	for i, f := range freq {
		t.headers[len(freq)-1-i] = header{item: f.item, count: f.count}
		t.byItem[f.item] = len(freq) - 1 - i
	}

	buf := make([]transact.Item, 0, 32)
	for _, tx := range txs {
		buf = buf[:0]
		for _, it := range tx {
			if _, ok := rank[it]; ok {
				buf = append(buf, it)
			}
		}
		sort.Slice(buf, func(i, j int) bool {
			ri, rj := rank[buf[i]], rank[buf[j]]
			if ri != rj {
				return ri < rj
			}
			return buf[i] < buf[j]
		})
		t.insert(buf, 1)
	}
	return t
}

func (t *tree) insert(items []transact.Item, count int64) {
	cur := &t.root
	for _, it := range items {
		child := cur.children[it]
		if child == nil {
			child = &node{item: it, parent: cur, children: make(map[transact.Item]*node)}
			cur.children[it] = child
			h := &t.headers[t.byItem[it]]
			child.next = h.head
			h.head = child
		}
		child.count += count
		cur = child
	}
}

// singlePath returns the tree's unique path when it has one, or nil. A
// single-path tree's frequent itemsets are all sub-combinations, emitted
// directly instead of recursing.
func (t *tree) singlePath() []*node {
	var path []*node
	cur := &t.root
	for {
		if len(cur.children) == 0 {
			return path
		}
		if len(cur.children) > 1 {
			return nil
		}
		for _, c := range cur.children {
			cur = c
		}
		path = append(path, cur)
	}
}

// Mine returns every itemset with support >= minCount (and at most maxLen
// items when maxLen > 0), each with its exact support: element k-1 holds the
// itemsets of length k in lexicographic order. minCount must be positive.
func Mine(txs []transact.Transaction, minCount int64, maxLen int) []itemset.Level {
	if minCount < 1 {
		minCount = 1
	}
	counts := make(map[transact.Item]int64)
	for _, tx := range txs {
		for _, it := range tx {
			counts[it]++
		}
	}
	t := buildTree(txs, counts, minCount)
	var out levels
	mineTree(t, minCount, maxLen, nil, &out)
	for _, l := range out {
		l.Sort()
	}
	return out
}

// levels collects the mined itemsets by length, in discovery order.
type levels []itemset.Level

// emit files a copy of the set, its items sorted, under its length.
func (ls *levels) emit(set []transact.Item, count int64) {
	k := len(set)
	for len(*ls) < k {
		*ls = append(*ls, itemset.Level{K: len(*ls) + 1})
	}
	l := &(*ls)[k-1]
	l.Append(set, count)
	own := l.Items[len(l.Items)-k:]
	sort.Slice(own, func(i, j int) bool { return own[i] < own[j] })
}

func mineTree(t *tree, minCount int64, maxLen int, suffix []transact.Item, out *levels) {
	if path := t.singlePath(); path != nil {
		emitCombinations(path, minCount, maxLen, suffix, out)
		return
	}
	for hi := range t.headers {
		h := &t.headers[hi]
		set := append(append([]transact.Item(nil), suffix...), h.item)
		out.emit(set, h.count)
		if maxLen > 0 && len(set) >= maxLen {
			continue
		}
		// Conditional pattern base: the prefix paths above each node
		// carrying h.item, weighted by that node's count.
		condCounts := make(map[transact.Item]int64)
		var base []prefixed
		for n := h.head; n != nil; n = n.next {
			var items []transact.Item
			for p := n.parent; p != nil && p.parent != nil; p = p.parent {
				items = append(items, p.item)
			}
			if len(items) == 0 {
				continue
			}
			base = append(base, prefixed{items, n.count})
			for _, it := range items {
				condCounts[it] += n.count
			}
		}
		cond := condTree(base, condCounts, minCount)
		if cond != nil {
			mineTree(cond, minCount, maxLen, set, out)
		}
	}
}

// prefixed is one conditional-pattern-base entry: a prefix path and the
// count it contributes.
type prefixed struct {
	items []transact.Item
	count int64
}

// condTree builds the conditional FP-tree of a pattern base; nil when no
// conditional item is frequent.
func condTree(base []prefixed, counts map[transact.Item]int64, minCount int64) *tree {
	type ic struct {
		item  transact.Item
		count int64
	}
	var freq []ic
	for it, n := range counts {
		if n >= minCount {
			freq = append(freq, ic{it, n})
		}
	}
	if len(freq) == 0 {
		return nil
	}
	sort.Slice(freq, func(i, j int) bool {
		if freq[i].count != freq[j].count {
			return freq[i].count > freq[j].count
		}
		return freq[i].item < freq[j].item
	})
	rank := make(map[transact.Item]int, len(freq))
	for i, f := range freq {
		rank[f.item] = i
	}
	t := &tree{
		root:   node{children: make(map[transact.Item]*node)},
		byItem: make(map[transact.Item]int, len(freq)),
	}
	t.headers = make([]header, len(freq))
	for i, f := range freq {
		t.headers[len(freq)-1-i] = header{item: f.item, count: f.count}
		t.byItem[f.item] = len(freq) - 1 - i
	}
	buf := make([]transact.Item, 0, 16)
	for _, b := range base {
		buf = buf[:0]
		for _, it := range b.items {
			if _, ok := rank[it]; ok {
				buf = append(buf, it)
			}
		}
		sort.Slice(buf, func(i, j int) bool {
			ri, rj := rank[buf[i]], rank[buf[j]]
			if ri != rj {
				return ri < rj
			}
			return buf[i] < buf[j]
		})
		t.insert(buf, b.count)
	}
	return t
}

// emitCombinations handles the single-path shortcut: every combination of
// the path's nodes joined with the suffix is frequent with the count of
// its deepest member.
func emitCombinations(path []*node, minCount int64, maxLen int, suffix []transact.Item, out *levels) {
	// Nodes on a single path have non-increasing counts; a combination's
	// support is the deepest (smallest-count) node's count.
	var rec func(start int, cur []transact.Item, cnt int64)
	rec = func(start int, cur []transact.Item, cnt int64) {
		for i := start; i < len(path); i++ {
			n := path[i]
			if n.count < minCount {
				continue
			}
			set := append(append([]transact.Item(nil), cur...), n.item)
			out.emit(append(append([]transact.Item(nil), suffix...), set...), n.count)
			if maxLen <= 0 || len(suffix)+len(set) < maxLen {
				rec(i+1, set, n.count)
			}
		}
	}
	rec(0, nil, 0)
}
