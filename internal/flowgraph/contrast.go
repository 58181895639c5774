package flowgraph

import (
	"sort"

	"flowcube/internal/hierarchy"
	"flowcube/internal/stats"
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
// Weight. k <= 0 returns all. It walks the two graphs' columns.
func Contrast(current, baseline *Graph, k int) []NodeDiff {
	a, b := current.cols, baseline.cols
	var out []NodeDiff
	var walk func(prefix []hierarchy.NodeID, na, nb int32)
	walk = func(prefix []hierarchy.NodeID, na, nb int32) {
		ta, tb := a.transAt(na), b.transAt(nb)
		ia, ea := ta.lo, ta.lo+int32(len(ta.counts))
		ib, eb := tb.lo, tb.lo+int32(len(tb.counts))
		for ia < ea || ib < eb {
			xa, xb := int32(-1), int32(-1)
			switch {
			case ib == eb || (ia < ea && a.Locations[ia] < b.Locations[ib]):
				xa = ia
				ia++
			case ia == ea || b.Locations[ib] < a.Locations[ia]:
				xb = ib
				ib++
			default:
				xa, xb = ia, ib
				ia++
				ib++
			}
			var d NodeDiff
			if xa >= 0 {
				d.OnlyIn++
				d.Prefix = append(prefix[:len(prefix):len(prefix)], hierarchy.NodeID(a.Locations[xa]))
				d.CurrentReach = stats.Prob(a.Counts[xa], a.Paths)
			}
			if xb >= 0 {
				d.Prefix = append(prefix[:len(prefix):len(prefix)], hierarchy.NodeID(b.Locations[xb]))
				d.BaselineReach = stats.Prob(b.Counts[xb], b.Paths)
				d.OnlyIn--
			}
			if xa >= 0 && xb >= 0 {
				da, db := a.durationsAt(xa), b.durationsAt(xb)
				d.DurationShift = da.Mean() - db.Mean()
				d.DurationDeviation = da.MaxDeviation(&db)
				ca, cb := a.transAt(xa), b.transAt(xb)
				d.TransitionDeviation = maxDeviation(&ca, &cb)
			}
			out = append(out, d)
			walk(d.Prefix, xa, xb)
		}
	}
	walk(nil, 0, 0)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Weight() > out[j].Weight() })
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}
