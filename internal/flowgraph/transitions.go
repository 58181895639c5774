package flowgraph

import (
	"flowcube/internal/hierarchy"
	"flowcube/internal/stats"
)

// T, the transition distribution at a node, is the tree's edge counts: a
// node's transition to its child c was observed c.Count times, and the paths
// that end at the node — Count less its children's, none at the root — are
// its Terminate outcome. The readers below derive it from the children where
// they stand, without allocating, and walk it in ascending outcome order
// (Terminate, -1, first, then the children by location), the order a
// stats.Multinomial holding the same counts keeps, so every sum over it
// feeds the stats arithmetic the same counts in the same order and comes
// out bit for bit as it did when nodes kept T as a Multinomial.

// Terminations reports how many of the paths that reach n end there: its
// count less its children's. No path ends at the root.
func (n *Node) Terminations() int64 {
	if n.Depth == 0 {
		return 0
	}
	t := n.Count
	for _, c := range n.children {
		t -= c.Count
	}
	return t
}

// transitionTotal is the number of observations in T's entry at n: the
// paths that reach n, which at the root (whose Count is 0) are the paths
// through its children.
func (n *Node) transitionTotal() int64 {
	if n.Depth > 0 {
		return n.Count
	}
	var t int64
	for _, c := range n.children {
		t += c.Count
	}
	return t
}

// TransitionProb is T's probability at n of the outcome to: moving on to
// the child at location to, or ending there when to is Terminate.
func (n *Node) TransitionProb(to int64) float64 {
	var count int64
	if to == Terminate {
		count = n.Terminations()
	} else if c := n.Child(hierarchy.NodeID(to)); c != nil {
		count = c.Count
	}
	return stats.Prob(count, n.transitionTotal())
}

// TerminationProb is the probability a path ends at this node.
func (n *Node) TerminationProb() float64 { return n.TransitionProb(Terminate) }

// ChildProb is T's probability at n of moving on to its child c: the share
// of the paths through n that go on to c.
func (n *Node) ChildProb(c *Node) float64 { return stats.Prob(c.Count, n.transitionTotal()) }

// trans is T at one node as the joins below read it: the paths that reach
// the node (total), the paths that end there (term, the Terminate outcome,
// absent when 0) and the children, one outcome each, its location observed
// its count times.
type trans struct {
	total, term int64
	children    []*Node
}

// transitions returns T at n; a nil n has no observations.
func transitions(n *Node) trans {
	if n == nil {
		return trans{}
	}
	return trans{total: n.transitionTotal(), term: n.Terminations(), children: n.children}
}

// join merge-joins T at two nodes: it calls fn once per outcome of their
// union, in ascending order, with the outcome's count on each side (0 where
// it was not observed), and returns the size of the union. A nil fn only
// counts.
func join(a, b *trans, fn func(ca, cb int64)) int {
	k := 0
	if a.term > 0 || b.term > 0 {
		k++
		if fn != nil {
			fn(a.term, b.term)
		}
	}
	ca, cb := a.children, b.children
	for i, j := 0, 0; i < len(ca) || j < len(cb); k++ {
		var x, y int64
		switch {
		case j == len(cb) || (i < len(ca) && ca[i].Location < cb[j].Location):
			x = ca[i].Count
			i++
		case i == len(ca) || cb[j].Location < ca[i].Location:
			y = cb[j].Count
			j++
		default:
			x, y = ca[i].Count, cb[j].Count
			i++
			j++
		}
		if fn != nil {
			fn(x, y)
		}
	}
	return k
}

// joinKept is join of a transition distribution kept as a stats.Multinomial
// — an exception's conditional one, whose outcomes are Terminate and child
// locations — with T at a node.
func joinKept(a *stats.Multinomial, b *trans, fn func(ca, cb int64)) int {
	o, c := a.Columns()
	k, i := 0, 0
	if hasTerm := len(o) > 0 && o[0] == Terminate; hasTerm || b.term > 0 {
		var x int64
		if hasTerm {
			x, i = c[0], 1
		}
		k++
		if fn != nil {
			fn(x, b.term)
		}
	}
	cb := b.children
	for j := 0; i < len(o) || j < len(cb); k++ {
		var x, y int64
		switch {
		case j == len(cb) || (i < len(o) && o[i] < int64(cb[j].Location)):
			x = c[i]
			i++
		case i == len(o) || int64(cb[j].Location) < o[i]:
			y = cb[j].Count
			j++
		default:
			x, y = c[i], cb[j].Count
			i++
			j++
		}
		if fn != nil {
			fn(x, y)
		}
	}
	return k
}

// klBoth is stats.Multinomial.KLBoth of T at two nodes.
func klBoth(a, b *trans) (ab, ba float64) {
	d := stats.NewKL(join(a, b, nil), a.total, b.total)
	join(a, b, d.Add)
	return d.Sums()
}

// klDivergence is stats.Multinomial.KLDivergence of T at two nodes.
func klDivergence(a, b *trans) float64 {
	d := stats.NewKL(join(a, b, nil), a.total, b.total)
	join(a, b, d.AddAB)
	ab, _ := d.Sums()
	return ab
}

// maxDeviation is stats.Multinomial.MaxDeviation of T at two nodes.
func maxDeviation(a, b *trans) float64 {
	d := stats.NewDeviation(a.total, b.total)
	join(a, b, d.Add)
	return d.Max()
}

// keptDeviation is stats.Multinomial.MaxDeviation of a kept transition
// distribution and T at a node.
func keptDeviation(a *stats.Multinomial, b *trans) float64 {
	d := stats.NewDeviation(a.Total(), b.total)
	joinKept(a, b, d.Add)
	return d.Max()
}

// colTrans is T at one node of a resting graph's columns, as trans is at a
// tree node: its children are the index range starting at lo, their
// locations locs and their counts counts.
type colTrans struct {
	total, term int64
	lo          int32
	locs        []int32
	counts      []int64
}

// transAt returns T at node i of f; i = -1, an absent node, has no
// observations.
func (f *Flat) transAt(i int32) colTrans {
	if i < 0 {
		return colTrans{}
	}
	lo, hi := f.ChildLo[i], f.ChildLo[i+1]
	t := colTrans{total: f.Counts[i], term: f.Ends(int(i)), lo: lo, locs: f.Locations[lo:hi], counts: f.Counts[lo:hi]}
	if i == 0 {
		t.total = 0
		for _, c := range t.counts {
			t.total += c
		}
	}
	return t
}

// durAt returns D at node i of f as a view of the pooled columns; i = -1
// has no observations. Its total is the sum of its weights, as a
// Multinomial's is.
func (f *Flat) durAt(i int32) stats.Sorted {
	if i < 0 {
		return stats.Sorted{}
	}
	lo, hi := f.DurLo[i], f.DurLo[i+1]
	d := stats.Sorted{Outcomes: f.Outcomes[lo:hi], Counts: f.Weights[lo:hi]}
	for _, w := range d.Counts {
		d.Total += w
	}
	return d
}

// joinCols is join of T at two nodes of resting graphs.
func joinCols(a, b *colTrans, fn func(ca, cb int64)) int {
	k := 0
	if a.term > 0 || b.term > 0 {
		k++
		if fn != nil {
			fn(a.term, b.term)
		}
	}
	i, j := 0, 0
	for ; i < len(a.locs) || j < len(b.locs); k++ {
		var x, y int64
		switch {
		case j == len(b.locs) || (i < len(a.locs) && a.locs[i] < b.locs[j]):
			x = a.counts[i]
			i++
		case i == len(a.locs) || b.locs[j] < a.locs[i]:
			y = b.counts[j]
			j++
		default:
			x, y = a.counts[i], b.counts[j]
			i++
			j++
		}
		if fn != nil {
			fn(x, y)
		}
	}
	return k
}

// klBothCols is klBoth of T at two nodes of resting graphs.
func klBothCols(a, b *colTrans) (ab, ba float64) {
	d := stats.NewKL(joinCols(a, b, nil), a.total, b.total)
	joinCols(a, b, d.Add)
	return d.Sums()
}

// klDivergenceCols is klDivergence of T at two nodes of resting graphs.
func klDivergenceCols(a, b *colTrans) float64 {
	d := stats.NewKL(joinCols(a, b, nil), a.total, b.total)
	joinCols(a, b, d.AddAB)
	ab, _ := d.Sums()
	return ab
}

// Ends reports how many of the paths that reach node i end there: its
// count less its children's, and 0 at the root, which no path ends at. It
// is the weight of Terminate in the node's transition distribution, which
// has no Terminate outcome when it is 0.
func (f *Flat) Ends(i int) int64 {
	if i == 0 {
		return 0
	}
	ends := f.Counts[i]
	for _, c := range f.Counts[f.ChildLo[i]:f.ChildLo[i+1]] {
		ends -= c
	}
	return ends
}
