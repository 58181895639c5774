// Package flowgraph implements the paper's §3 measure: a tree-shaped
// probabilistic workflow summarizing a collection of paths.
//
// A flowgraph is a tuple (V, D, T, X). V are the nodes of a prefix tree —
// one node per distinct path prefix, so all paths sharing a prefix share a
// branch. D annotates each node with a multinomial distribution over the
// durations items spent at the node. T annotates each node with a
// multinomial over its outgoing transitions, including a termination
// probability; T is the tree's edge counts, read off it where it is needed
// (transitions.go). X is the set of exceptions: significant deviations of a
// node's duration or transition distribution conditioned on a frequent
// path-segment prefix (parameters ε, the minimum deviation, and δ, the
// minimum support).
//
// Per the paper's Lemma 4.2 the (D, T) component is an algebraic measure —
// Fold builds a parent cell's distributions from children without touching
// the path database — while Lemma 4.3 shows X is holistic: Fold drops
// exceptions and the caller re-mines them.
package flowgraph

import (
	"fmt"
	"strings"

	"flowcube/internal/hierarchy"
	"flowcube/internal/pathdb"
	"flowcube/internal/stats"
)

// Terminate is the transition-distribution outcome standing for "the path
// ends here". Location concept ids are non-negative, so -1 is free.
const Terminate int64 = -1

// Node is one vertex of the flowgraph: a unique path prefix. It is one
// 80-byte box with two pointer words, the duration distribution's backing
// array and the child list: T's entry at the node is the children's counts
// (TransitionProb, Terminations), so the node does not keep it again.
type Node struct {
	// Location is the (aggregated) location concept of this stage.
	Location hierarchy.NodeID
	// Depth is the 1-based position of the stage in the path; the virtual
	// root has depth 0.
	Depth int
	// Count is the number of paths that reach this node.
	Count int64
	// Durations is D's entry for the node.
	Durations stats.Multinomial

	// children is sorted by ascending Location, one entry per location.
	children []*Node
}

// Children returns the node's children ordered by location id. The slice is
// the node's own; callers must not modify it.
func (n *Node) Children() []*Node { return n.children }

// childIndex returns the position of the child at loc, or the position it
// would be inserted at and false. Fan-outs are small, so it scans.
func (n *Node) childIndex(loc hierarchy.NodeID) (int, bool) {
	for i, c := range n.children {
		if c.Location >= loc {
			return i, c.Location == loc
		}
	}
	return len(n.children), false
}

// Child returns the child at the given location, or nil.
func (n *Node) Child(loc hierarchy.NodeID) *Node {
	if i, ok := n.childIndex(loc); ok {
		return n.children[i]
	}
	return nil
}

// StagePin identifies one conditioning constraint of an exception: the
// stage at 1-based position Depth was at Location, with the given Duration
// (DurAny means the duration is unconstrained).
type StagePin struct {
	Depth    int
	Location hierarchy.NodeID
	Duration int64
	DurAny   bool
}

// Exception is one element of X: conditioned on the pinned prefix, the
// distributions at Node deviate from the node's general distributions.
type Exception struct {
	// Node is the deviating node, in the tree of the graph that holds the
	// exception; Prefix is the location sequence from the first stage to it.
	Node      *Node
	Prefix    []hierarchy.NodeID
	Condition []StagePin
	// Support is the number of paths matching the condition and reaching
	// the node.
	Support int64
	// Durations and Transitions are the conditional distributions.
	Durations   *stats.Multinomial
	Transitions *stats.Multinomial
	// DurationDeviation and TransitionDeviation are the L∞ distances from
	// the node's general distributions; an exception is recorded when
	// either exceeds ε.
	DurationDeviation   float64
	TransitionDeviation float64
}

// Graph is a flowgraph over paths aggregated to one path level. A graph is
// its columns (Flat), which never change once it is made: New, Build, Fold,
// FoldPaths, MineExceptions and Unflatten each return a new graph, so a
// graph is shared by pointer between cube generations. Its node readers,
// Root, NodeAt and Exceptions, return nodes of a fresh read-only tree
// thawed on every call, so nodes from two calls are never the same pointer:
// compare them by the location sequence that reaches them.
type Graph struct {
	level pathdb.PathLevel
	loc   *hierarchy.Hierarchy
	cols  *Flat
}

// New returns an empty flowgraph for paths at the given level: the root
// alone.
func New(loc *hierarchy.Hierarchy, level pathdb.PathLevel) *Graph {
	r := &boxed{g: Graph{level: level, loc: loc}}
	lc := []int32{int32(hierarchy.Root), 1, 1, 0, 0}
	r.f = Flat{Locations: lc[:1:1], ChildLo: lc[1:3:3], DurLo: lc[3:5:5], Counts: make([]int64, 1)}
	r.g.cols = &r.f
	return &r.g
}

// Build constructs a flowgraph from raw paths, aggregating each to the
// level first; merge combines durations of stages collapsed by aggregation
// (nil sums them).
func Build(loc *hierarchy.Hierarchy, level pathdb.PathLevel, paths []pathdb.Path, merge pathdb.DurationMerge) *Graph {
	n := 0
	for _, p := range paths {
		n += len(p)
	}
	stages, aps := make(pathdb.Path, 0, n), make([]pathdb.Path, len(paths))
	for i, p := range paths {
		lo := len(stages)
		stages = pathdb.AppendAggregated(stages, p, level, merge)
		aps[i] = stages[lo:len(stages):len(stages)]
	}
	return FoldPaths(New(loc, level), aps)
}

// Root returns the virtual root (depth 0) of a fresh tree. Its transition
// distribution is the distribution over first stages, its Count 0.
func (g *Graph) Root() *Node {
	root, _ := g.cols.thaw()
	return root
}

// Paths reports the number of paths summarized.
func (g *Graph) Paths() int64 { return g.cols.Paths }

// Columns returns the graph's columns. They are the graph's own and never
// change: callers read them and must not modify them.
func (g *Graph) Columns() *Flat { return g.cols }

// Exceptions returns the mined exception set X, each exception naming a
// node of a fresh tree it comes with.
func (g *Graph) Exceptions() []Exception {
	_, xs := g.cols.thaw()
	return xs
}

// NodeAt resolves the node for a location-sequence prefix, or nil.
func (g *Graph) NodeAt(seq []hierarchy.NodeID) *Node {
	cur := g.Root()
	for _, l := range seq {
		cur = cur.Child(l)
		if cur == nil {
			return nil
		}
	}
	return cur
}

// String renders the tree with per-node duration/transition annotations in
// the style of the paper's Figure 3.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "flowgraph (%d paths, level %s)\n", g.Paths(), g.level.Key())
	var rec func(n *Node, indent string)
	rec = func(n *Node, indent string) {
		for _, c := range n.Children() {
			frac := 0.0
			if g.Paths() > 0 {
				frac = n.ChildProb(c)
			}
			fmt.Fprintf(&b, "%s%s p=%.2f dur[%s]", indent, g.loc.Name(c.Location), frac, &c.Durations)
			if t := c.TerminationProb(); t > 0 {
				fmt.Fprintf(&b, " term=%.2f", t)
			}
			b.WriteByte('\n')
			rec(c, indent+"  ")
		}
	}
	rec(g.Root(), "  ")
	return b.String()
}

// dotLabelEscaper escapes a location name for a double-quoted DOT label.
var dotLabelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`)

// DOT renders the graph in Graphviz dot syntax, one node per prefix, edges
// labelled with transition probabilities.
func (g *Graph) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n", name)
	var rec func(n *Node, id string)
	rec = func(n *Node, id string) {
		label := "start"
		if n.Depth > 0 {
			label = fmt.Sprintf("%s\\ndur %s", dotLabelEscaper.Replace(g.loc.Name(n.Location)), &n.Durations)
			if t := n.TerminationProb(); t > 0 {
				label += fmt.Sprintf("\\nterm %.2f", t)
			}
		}
		fmt.Fprintf(&b, "  %s [label=\"%s\"];\n", id, label)
		for _, c := range n.Children() {
			cid := fmt.Sprintf("%s_%d", id, c.Location)
			fmt.Fprintf(&b, "  %s -> %s [label=\"%.2f\"];\n", id, cid, n.ChildProb(c))
			rec(c, cid)
		}
	}
	rec(g.Root(), "root")
	b.WriteString("}\n")
	return b.String()
}
