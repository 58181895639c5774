package flowgraph

import (
	"sort"

	"flowcube/internal/hierarchy"
)

// Analysis utilities over a flowgraph, answering the paper's introductory
// question 1: "the most typical paths, with average duration at each
// stage, ... and the most notable deviations from the typical paths that
// significantly increase total lead time".

// PathSummary is one complete root-to-termination route through the
// flowgraph.
type PathSummary struct {
	// Locations is the route's location sequence.
	Locations []hierarchy.NodeID
	// Prob is the probability the flowgraph assigns to the route
	// (transitions and termination only; durations marginalized).
	Prob float64
	// MeanDurations holds the expected stay at each stage.
	MeanDurations []float64
	// MeanLeadTime is the sum of the expected stays.
	MeanLeadTime float64
}

// TopPaths returns the k most probable complete routes, most probable
// first. Ties break lexicographically on the location sequence, so the
// result is deterministic.
func (g *Graph) TopPaths(k int) []PathSummary {
	var out []PathSummary
	var walk func(n *Node, prob float64, locs []hierarchy.NodeID, durs []float64, lead float64)
	walk = func(n *Node, prob float64, locs []hierarchy.NodeID, durs []float64, lead float64) {
		if prob == 0 {
			return
		}
		if term := n.TerminationProb(); term > 0 && n.Depth > 0 {
			out = append(out, PathSummary{
				Locations:     append([]hierarchy.NodeID(nil), locs...),
				Prob:          prob * term,
				MeanDurations: append([]float64(nil), durs...),
				MeanLeadTime:  lead,
			})
		}
		for _, c := range n.Children() {
			p := n.ChildProb(c)
			m := c.Durations.Mean()
			walk(c, prob*p, append(locs, c.Location), append(durs, m), lead+m)
		}
	}
	walk(g.Root(), 1, nil, nil, 0)
	sort.Slice(out, func(i, j int) bool {
		// Two-sided comparison avoids float equality: probabilities that
		// differ only in rounding residue fall through to the location
		// tiebreak rather than being ordered by noise.
		if out[i].Prob > out[j].Prob {
			return true
		}
		if out[j].Prob > out[i].Prob {
			return false
		}
		return lessLocs(out[i].Locations, out[j].Locations)
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

func lessLocs(a, b []hierarchy.NodeID) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// ExpectedLeadTime returns the expected total duration of a path drawn
// from the flowgraph's model: the mean stay at each node weighted by the
// probability of reaching it.
func (g *Graph) ExpectedLeadTime() float64 {
	var rec func(n *Node) float64
	rec = func(n *Node) float64 {
		var e float64
		if n.Depth > 0 {
			e = n.Durations.Mean()
		}
		for _, c := range n.Children() {
			e += n.ChildProb(c) * rec(c)
		}
		return e
	}
	return rec(g.Root())
}

// SubtreeLeadTime returns the expected remaining duration from (and
// including) the given node to termination.
func (g *Graph) SubtreeLeadTime(n *Node) float64 {
	e := n.Durations.Mean()
	for _, c := range n.Children() {
		e += n.ChildProb(c) * g.SubtreeLeadTime(c)
	}
	return e
}

// Delay quantifies how much an exception shifts the expected stay at its
// node: the conditional mean duration minus the node's general mean.
// Positive values are slowdowns.
func (x Exception) Delay() float64 {
	return x.Durations.Mean() - x.Node.Durations.Mean()
}

// SlowestDeviations returns the mined exceptions ranked by decreasing
// Delay — the "most notable deviations ... that significantly increase
// total lead time" of the paper's question 1. Only exceptions with a
// positive delay are returned; k <= 0 returns all.
func (g *Graph) SlowestDeviations(k int) []Exception {
	var out []Exception
	for _, x := range g.Exceptions() {
		if x.Delay() > 0 {
			out = append(out, x)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Delay() > out[j].Delay() })
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}
