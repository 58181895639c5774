package flowgraph

import "flowcube/internal/pathdb"

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
	for _, w := range g.walkAll(paths) {
		for _, n := range w.nodes {
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
