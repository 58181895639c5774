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

// colTrans is T at one node of a graph's columns as the joins below read
// it: the paths that reach the node (total), the paths that end there
// (term, the Terminate outcome, absent when 0) and the children, the index
// range starting at lo, one outcome each, location locs[i] observed
// counts[i] times.
type colTrans struct {
	total, term int64
	lo          int32
	locs        []int32
	counts      []int64
}

// transAt returns T at node i of a graph's own columns, which passed Check
// or were made by a fold or a mine; i = -1, an absent node, has no
// observations. The paths that reach the root are the graph's: its
// children hold exactly Paths.
func (f *Flat) transAt(i int32) colTrans {
	if i < 0 {
		return colTrans{}
	}
	lo, hi := f.ChildLo[i], f.ChildLo[i+1]
	t := colTrans{total: f.Counts[i], lo: lo, locs: f.Locations[lo:hi], counts: f.Counts[lo:hi]}
	if i == 0 {
		t.total = f.Paths
	} else {
		t.term = t.total
		for _, c := range t.counts {
			t.term -= c
		}
	}
	return t
}

// DurationsAt returns D at node i of f as a view of the pooled columns,
// which callers must not modify; i = -1, an absent node, has no
// observations. Its total is the sum of its weights, as a Multinomial's is.
func (f *Flat) DurationsAt(i int32) stats.Sorted {
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

// durationsAt is DurationsAt of a graph's own columns, which passed Check
// or were made by a fold or a mine: below the root, a node's weights sum to
// its count, so the total is read rather than summed.
func (f *Flat) durationsAt(i int32) stats.Sorted {
	if i <= 0 {
		return f.DurationsAt(i)
	}
	lo, hi := f.DurLo[i], f.DurLo[i+1]
	return stats.Sorted{Outcomes: f.Outcomes[lo:hi], Counts: f.Weights[lo:hi], Total: f.Counts[i]}
}

// joinCols merge-joins T at two nodes: it calls fn once per outcome of
// their union, in ascending order, with the outcome's count on each side (0
// where it was not observed), and returns the size of the union. A nil fn
// only counts.
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

// klBoth is stats.Multinomial.KLBoth of T at two nodes.
func klBoth(a, b *colTrans) (ab, ba float64) {
	d := stats.NewKL(joinCols(a, b, nil), a.total, b.total)
	joinCols(a, b, d.Add)
	return d.Sums()
}

// klDivergence is stats.Multinomial.KLDivergence of T at two nodes.
func klDivergence(a, b *colTrans) float64 {
	d := stats.NewKL(joinCols(a, b, nil), a.total, b.total)
	joinCols(a, b, d.AddAB)
	ab, _ := d.Sums()
	return ab
}

// maxDeviation is stats.Multinomial.MaxDeviation of T at two nodes.
func maxDeviation(a, b *colTrans) float64 {
	d := stats.NewDeviation(a.total, b.total)
	joinCols(a, b, d.Add)
	return d.Max()
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
