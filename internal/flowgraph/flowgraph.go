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

// Graph is a flowgraph over paths aggregated to one path abstraction level.
// It is held in one of two forms. A miner's graph is a tree of nodes: New,
// Build and Thaw return one, and AddPath, AddAggregated and MineExceptions
// write it. Every other graph — every graph a cube holds — rests as its
// columns (Rest, Unflatten, Fold; rest.go), read-only: a write to it panics.
// Its node readers, Root, NodeAt and Exceptions, return nodes of a fresh
// tree on every call, so nodes from two calls are never the same pointer:
// compare them by the location sequence that reaches them.
type Graph struct {
	level pathdb.PathLevel
	merge pathdb.DurationMerge
	loc   *hierarchy.Hierarchy
	paths int64
	// root and exceptions are the tree form; both are nil while the graph
	// rests, and cols holds its columns instead.
	root       *Node
	exceptions []Exception
	cols       *Flat
}

// New returns an empty flowgraph for paths at the given level. merge
// combines durations of stages collapsed by aggregation (nil sums them).
func New(loc *hierarchy.Hierarchy, level pathdb.PathLevel, merge pathdb.DurationMerge) *Graph {
	return &Graph{
		level: level,
		merge: merge,
		loc:   loc,
		root:  &Node{Location: hierarchy.Root},
	}
}

// Build constructs a flowgraph from raw paths, aggregating each to the
// level first.
func Build(loc *hierarchy.Hierarchy, level pathdb.PathLevel, paths []pathdb.Path, merge pathdb.DurationMerge) *Graph {
	g := New(loc, level, merge)
	for _, p := range paths {
		g.AddPath(p)
	}
	return g
}

// Root returns the virtual root (depth 0). Its transition distribution is
// the distribution over first stages, its Count 0.
func (g *Graph) Root() *Node {
	root, _ := g.tree()
	return root
}

// Paths reports the number of paths summarized.
func (g *Graph) Paths() int64 { return g.paths }

// Exceptions returns the mined exception set X, each exception naming a
// node of the tree it comes with.
func (g *Graph) Exceptions() []Exception {
	_, xs := g.tree()
	return xs
}

// insertChild hangs c under n at position i of its child list (childIndex's
// answer for c's location).
func (n *Node) insertChild(i int, c *Node) {
	n.children = append(n.children, nil)
	copy(n.children[i+1:], n.children[i:])
	n.children[i] = c
}

// AddPath aggregates the raw path to the graph's level and folds it in.
func (g *Graph) AddPath(p pathdb.Path) {
	g.AddAggregated(pathdb.AggregatePath(p, g.level, g.merge))
}

// AddAggregated folds in a path already at the graph's level. g must be a
// tree.
func (g *Graph) AddAggregated(p pathdb.Path) {
	if len(p) == 0 {
		return
	}
	g.writable()
	g.paths++
	cur := g.root
	for _, st := range p {
		i, ok := cur.childIndex(st.Location)
		if !ok {
			cur.insertChild(i, &Node{Location: st.Location, Depth: cur.Depth + 1})
		}
		next := cur.children[i]
		next.Count++
		next.Durations.Observe(st.Duration)
		cur = next
	}
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
	fmt.Fprintf(&b, "flowgraph (%d paths, level %s)\n", g.paths, g.level.Key())
	var rec func(n *Node, indent string)
	rec = func(n *Node, indent string) {
		for _, c := range n.Children() {
			frac := 0.0
			if g.paths > 0 {
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
