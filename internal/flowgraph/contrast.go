package flowgraph

import (
	"sort"

	"flowcube/internal/hierarchy"
)

// Contrast answers the paper's introductory question 3 — "present a
// workflow that summarizes the item movement ... and contrast path
// durations with historic flow information for the same region" — by
// walking two flowgraphs (e.g. this year's cell vs. last year's) over the
// union of their prefixes and reporting, per node, how the duration and
// transition behaviour shifted.

// NodeDiff describes the shift at one path prefix between a current graph
// and a baseline graph.
type NodeDiff struct {
	// Prefix is the location sequence identifying the node.
	Prefix []hierarchy.NodeID
	// CurrentReach and BaselineReach are the empirical probabilities that
	// a path visits the node in each graph (0 when absent).
	CurrentReach, BaselineReach float64
	// DurationShift is the change in mean stay (current − baseline);
	// meaningless when either side is absent.
	DurationShift float64
	// DurationDeviation and TransitionDeviation are the L∞ distances
	// between the two nodes' distributions.
	DurationDeviation   float64
	TransitionDeviation float64
	// OnlyIn marks prefixes present in just one graph: +1 current-only,
	// -1 baseline-only, 0 both.
	OnlyIn int
}

// Weight orders diffs by how much flow they affect: the larger reach times
// the larger distribution deviation.
func (d NodeDiff) Weight() float64 {
	reach := d.CurrentReach
	if d.BaselineReach > reach {
		reach = d.BaselineReach
	}
	dev := d.DurationDeviation
	if d.TransitionDeviation > dev {
		dev = d.TransitionDeviation
	}
	if d.OnlyIn != 0 {
		dev = 1
	}
	return reach * dev
}

// Contrast compares current against baseline (both at the same path
// abstraction level) and returns per-node diffs ordered by decreasing
// Weight. k <= 0 returns all.
func Contrast(current, baseline *Graph, k int) []NodeDiff {
	var out []NodeDiff
	var walk func(prefix []hierarchy.NodeID, a, b *Node)
	walk = func(prefix []hierarchy.NodeID, a, b *Node) {
		seen := map[hierarchy.NodeID]bool{}
		var locs []hierarchy.NodeID
		if a != nil {
			for _, c := range a.Children() {
				if !seen[c.Location] {
					seen[c.Location] = true
					locs = append(locs, c.Location)
				}
			}
		}
		if b != nil {
			for _, c := range b.Children() {
				if !seen[c.Location] {
					seen[c.Location] = true
					locs = append(locs, c.Location)
				}
			}
		}
		sort.Slice(locs, func(i, j int) bool { return locs[i] < locs[j] })
		for _, loc := range locs {
			var ca, cb *Node
			if a != nil {
				ca = a.Child(loc)
			}
			if b != nil {
				cb = b.Child(loc)
			}
			p := append(append([]hierarchy.NodeID(nil), prefix...), loc)
			d := NodeDiff{Prefix: p}
			switch {
			case ca != nil && cb != nil:
				d.CurrentReach = current.ReachProb(ca)
				d.BaselineReach = baseline.ReachProb(cb)
				d.DurationShift = ca.Durations.Mean() - cb.Durations.Mean()
				d.DurationDeviation = ca.Durations.MaxDeviation(&cb.Durations)
				ta, tb := transitions(ca), transitions(cb)
				d.TransitionDeviation = maxDeviation(&ta, &tb)
			case ca != nil:
				d.CurrentReach = current.ReachProb(ca)
				d.OnlyIn = 1
			default:
				d.BaselineReach = baseline.ReachProb(cb)
				d.OnlyIn = -1
			}
			out = append(out, d)
			walk(p, ca, cb)
		}
	}
	walk(nil, current.Root(), baseline.Root())
	sort.SliceStable(out, func(i, j int) bool { return out[i].Weight() > out[j].Weight() })
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}
