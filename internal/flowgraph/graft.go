package flowgraph

// Reconstruction primitives used when deserializing a persisted flowgraph:
// they rebuild the prefix tree node by node from previously computed
// distributions instead of replaying paths. They are also the extension
// point for loading flowgraphs computed by external systems. They write
// nodes in place, so they are for graphs that own their nodes (New), not
// for a Fork.

import (
	"fmt"

	"flowcube/internal/hierarchy"
	"flowcube/internal/stats"
)

// SetRootTransitions installs the total path count and the distribution
// over first stages. Any existing counts at the root are replaced.
func (g *Graph) SetRootTransitions(paths int64, tr *stats.Multinomial) {
	g.paths = paths
	g.root.Transitions = tr
}

// Graft installs (or overwrites) the node at the given location prefix
// with precomputed count and distributions. Every strict prefix must have
// been grafted before, so callers rebuild the tree top-down.
func (g *Graph) Graft(seq []hierarchy.NodeID, count int64, durations, transitions *stats.Multinomial) error {
	if len(seq) == 0 {
		return fmt.Errorf("flowgraph: cannot graft an empty prefix")
	}
	parent := g.root
	for _, l := range seq[:len(seq)-1] {
		parent = parent.Child(l)
		if parent == nil {
			return fmt.Errorf("flowgraph: graft of %v before its prefix", seq)
		}
	}
	loc := seq[len(seq)-1]
	i, ok := parent.childIndex(loc)
	if !ok {
		parent.insertChild(i, &Node{Location: loc, Depth: parent.Depth + 1})
	}
	n := parent.children[i]
	n.Count = count
	n.Durations = durations
	n.Transitions = transitions
	return nil
}

// GraftException installs a previously mined exception at the node
// identified by its location prefix.
func (g *Graph) GraftException(prefix []hierarchy.NodeID, cond []StagePin, support int64,
	durations, transitions *stats.Multinomial, devD, devT float64) error {
	n := g.NodeAt(prefix)
	if n == nil {
		return fmt.Errorf("flowgraph: exception references missing node %v", prefix)
	}
	g.exceptions = append(g.exceptions, Exception{
		Node:                n,
		Prefix:              append([]hierarchy.NodeID(nil), prefix...),
		Condition:           append([]StagePin(nil), cond...),
		Support:             support,
		Durations:           durations,
		Transitions:         transitions,
		DurationDeviation:   devD,
		TransitionDeviation: devT,
	})
	return nil
}
