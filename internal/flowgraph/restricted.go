package flowgraph

import (
	"sort"

	"flowcube/internal/pathdb"
	"flowcube/internal/stats"
)

// Restricted exception re-mining (the serving layer's incremental path).
//
// Exceptions are keyed by a target node; every aggregate behind one —
// support, conditional duration and transition multinomials, and the
// node-general reference distributions — depends only on the paths that run
// through the target. A batch therefore cannot change any exception whose
// target lies on none of the batch paths, so the delta fold retains those
// verbatim (RetainExceptions) and re-mines only at moved targets
// (MineExceptionsAt / MineExceptionsForAt with a target set), sealing with
// the same dedup+sort the full miners use so the result is byte-identical
// to mining from scratch. See DESIGN.md §11 for the full argument.

// MovedNodes resolves the set of nodes lying on any of the given raw paths
// (after aggregation to the graph's level). These are exactly the nodes
// whose counts, distributions, or exception aggregates a fold of those
// paths can change.
func (g *Graph) MovedNodes(paths []pathdb.Path) map[*Node]bool {
	moved := make(map[*Node]bool)
	for _, p := range paths {
		ap := pathdb.AggregatePath(p, g.level, g.merge)
		nodes, _ := g.walk(ap)
		for _, n := range nodes {
			moved[n] = true
		}
	}
	return moved
}

// RetainExceptions drops every mined exception for which keep is false,
// preserving order. The serving layer uses it to keep exceptions whose
// target a batch did not move.
func (g *Graph) RetainExceptions(keep func(*Exception) bool) {
	out := g.exceptions[:0]
	for i := range g.exceptions {
		if keep(&g.exceptions[i]) {
			out = append(out, g.exceptions[i])
		}
	}
	g.exceptions = out
}

// MineExceptionsAt is MineExceptions restricted to targets: it scans paths
// once and appends single-stage-condition exceptions whose target is in the
// set, leaving existing exceptions in place. Callers must SealExceptions
// when every restricted pass is done.
func (g *Graph) MineExceptionsAt(paths []pathdb.Path, targets map[*Node]bool, eps float64, minCount int64) {
	agg := make(map[condKey]*condAgg)
	for _, p := range paths {
		ap := pathdb.AggregatePath(p, g.level, g.merge)
		nodes, outcomes := g.walk(ap)
		if nodes == nil {
			continue
		}
		for i := 0; i < len(nodes); i++ {
			for j := i; j < len(nodes); j++ {
				if !targets[nodes[j]] {
					continue
				}
				k := condKey{condNode: nodes[i], condDur: ap[i].Duration, target: nodes[j]}
				a := agg[k]
				if a == nil {
					a = &condAgg{dur: stats.NewMultinomial(), tr: stats.NewMultinomial(), reach: ap[:j+1]}
					agg[k] = a
				}
				a.dur.Observe(ap[j].Duration)
				a.tr.Observe(outcomes[j])
			}
		}
	}
	for k, a := range agg {
		g.appendException(k.target, []StagePin{{
			Depth:    k.condNode.Depth,
			Location: k.condNode.Location,
			Duration: k.condDur,
		}}, a, eps, minCount)
	}
}

// MineExceptionsForAt is MineExceptionsFor restricted to targets (a nil set
// means every target, as in MineExceptionsFor) and without the final
// dedup+sort: exceptions are appended and the caller seals once all
// restricted passes are done.
func (g *Graph) MineExceptionsForAt(paths []pathdb.Path, conditions [][]StagePin, targets map[*Node]bool, eps float64, minCount int64) {
	type slot struct {
		cond   []StagePin
		maxPin int
		aggs   map[*Node]*condAgg
	}
	slots := make([]*slot, 0, len(conditions))
	for _, c := range conditions {
		if len(c) == 0 {
			continue
		}
		cc := append([]StagePin(nil), c...)
		sort.Slice(cc, func(i, j int) bool { return cc[i].Depth < cc[j].Depth })
		slots = append(slots, &slot{cond: cc, maxPin: cc[len(cc)-1].Depth, aggs: make(map[*Node]*condAgg)})
	}
	for _, p := range paths {
		ap := pathdb.AggregatePath(p, g.level, g.merge)
		nodes, outcomes := g.walk(ap)
		if nodes == nil {
			continue
		}
		for _, s := range slots {
			if !pinsMatch(ap, s.cond) {
				continue
			}
			for j := s.maxPin - 1; j < len(nodes); j++ {
				if targets != nil && !targets[nodes[j]] {
					continue
				}
				a := s.aggs[nodes[j]]
				if a == nil {
					a = &condAgg{dur: stats.NewMultinomial(), tr: stats.NewMultinomial(), reach: ap[:j+1]}
					s.aggs[nodes[j]] = a
				}
				a.dur.Observe(ap[j].Duration)
				a.tr.Observe(outcomes[j])
			}
		}
	}
	for _, s := range slots {
		for target, a := range s.aggs {
			g.appendException(target, s.cond, a, eps, minCount)
		}
	}
}

// SealExceptions deduplicates and sorts the mined exceptions — the same
// normalization the full miners end with, so a sequence of restricted
// passes produces the identical final set regardless of pass order.
func (g *Graph) SealExceptions() {
	g.dedupExceptions()
	g.sortExceptions()
}
