// Package flowgraph implements the paper's §3 measure: a tree-shaped
// probabilistic workflow summarizing a collection of paths.
//
// A flowgraph is a tuple (V, D, T, X). V are the nodes of a prefix tree —
// one node per distinct path prefix, so all paths sharing a prefix share a
// branch. D annotates each node with a multinomial distribution over the
// durations items spent at the node. T annotates each node with a
// multinomial over its outgoing transitions, including a termination
// probability. X is the set of exceptions: significant deviations of a
// node's duration or transition distribution conditioned on a frequent
// path-segment prefix (parameters ε, the minimum deviation, and δ, the
// minimum support).
//
// Per the paper's Lemma 4.2 the (D, T) component is an algebraic measure —
// Merge builds a parent cell's distributions from children without touching
// the path database — while Lemma 4.3 shows X is holistic: Merge drops
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

// Node is one vertex of the flowgraph: a unique path prefix.
type Node struct {
	// Location is the (aggregated) location concept of this stage.
	Location hierarchy.NodeID
	// owner is the tag of the graph generation that may write this node
	// (see Graph.Fork). It sits in the padding after Location, so the node
	// is no larger for it.
	owner uint32
	// Depth is the 1-based position of the stage in the path; the virtual
	// root has depth 0.
	Depth int
	// Count is the number of paths that reach this node.
	Count int64
	// Durations is D's entry for the node.
	Durations *stats.Multinomial
	// Transitions is T's entry: outcomes are the child locations (as
	// int64), plus Terminate.
	Transitions *stats.Multinomial

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

// TerminationProb is the probability a path ends at this node.
func (n *Node) TerminationProb() float64 { return n.Transitions.Prob(Terminate) }

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
//
// Ownership: a graph may write only the nodes that carry its owner tag.
// New, Clone and Fold return graphs that own every node; Fork returns one
// that owns none and copies a node the first time it writes through it, so
// the graph it was forked from — and every reader of that graph — keeps
// seeing exactly what it saw before.
type Graph struct {
	level      pathdb.PathLevel
	merge      pathdb.DurationMerge
	loc        *hierarchy.Hierarchy
	root       *Node
	paths      int64
	exceptions []Exception
	owner      uint32
	copied     int
}

// New returns an empty flowgraph for paths at the given level. merge
// combines durations of stages collapsed by aggregation (nil sums them).
func New(loc *hierarchy.Hierarchy, level pathdb.PathLevel, merge pathdb.DurationMerge) *Graph {
	return &Graph{
		level: level,
		merge: merge,
		loc:   loc,
		root:  newNode(hierarchy.Root, 0, 0),
	}
}

// newNode returns an empty node; the node and its two distributions are one
// allocation.
func newNode(loc hierarchy.NodeID, owner uint32, depth int) *Node {
	a := &struct {
		n    Node
		d, t stats.Multinomial
	}{n: Node{Location: loc, owner: owner, Depth: depth}}
	a.n.Durations, a.n.Transitions = &a.d, &a.t
	return &a.n
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
// the distribution over first stages.
func (g *Graph) Root() *Node { return g.root }

// Paths reports the number of paths summarized.
func (g *Graph) Paths() int64 { return g.paths }

// Exceptions returns the mined exception set X.
func (g *Graph) Exceptions() []Exception { return g.exceptions }

// ClearExceptions drops the mined exception set, leaving the tree and its
// distributions intact. Fold clears them: exceptions are holistic and do
// not fold.
func (g *Graph) ClearExceptions() { g.exceptions = nil }

// Fork returns a graph over the same nodes and exceptions that may write
// none of them: owner is a tag no node reachable from g carries (callers
// pass a generation number larger than any used before on this lineage).
// Writes through the fork path-copy — AddPath copies the root and the nodes
// along the path, once each, and mutates its own copies from then on — so g
// is frozen from the fork's point of view and may keep serving readers.
func (g *Graph) Fork(owner uint32) *Graph {
	f := *g
	f.owner = owner
	f.copied = 0
	f.exceptions = append([]Exception(nil), g.exceptions...)
	return &f
}

// NodesCopied reports how many nodes the graph has copied from the
// generation it was forked from (0 for a graph that was never forked).
func (g *Graph) NodesCopied() int { return g.copied }

// own returns the graph's own copy of n, a node it may not write, to hang
// where n hung: the node's count, both distributions and its child list are
// duplicated, the children themselves stay shared, and exceptions that
// named n are re-pointed at the copy. The copy is one box like newNode's,
// its distributions' backing arrays and its child list, each with room for
// the one outcome or child the write that copied it may add. Nodes hold no
// pointer to their parent, so nothing reachable from the copy keeps n alive.
func (g *Graph) own(n *Node) *Node {
	c := newNode(n.Location, g.owner, n.Depth)
	c.Count = n.Count
	n.Durations.CopyInto(c.Durations)
	n.Transitions.CopyInto(c.Transitions)
	c.children = append(make([]*Node, 0, len(n.children)+1), n.children...)
	for i := range g.exceptions {
		if g.exceptions[i].Node == n {
			g.exceptions[i].Node = c
		}
	}
	g.copied++
	return c
}

// insertChild hangs c under n at position i of its child list (childIndex's
// answer for c's location).
func (n *Node) insertChild(i int, c *Node) {
	n.children = append(n.children, nil)
	copy(n.children[i+1:], n.children[i:])
	n.children[i] = c
}

// ownedChild returns parent's child at loc as g may write it: a fresh, empty
// node when there is none, g's own copy when the child belongs to an older
// generation. g must own parent.
func (g *Graph) ownedChild(parent *Node, loc hierarchy.NodeID) *Node {
	i, ok := parent.childIndex(loc)
	if !ok {
		parent.insertChild(i, newNode(loc, g.owner, parent.Depth+1))
	} else if parent.children[i].owner != g.owner {
		parent.children[i] = g.own(parent.children[i])
	}
	return parent.children[i]
}

// AddPath aggregates the raw path to the graph's level and folds it in.
func (g *Graph) AddPath(p pathdb.Path) {
	g.AddAggregated(pathdb.AggregatePath(p, g.level, g.merge))
}

// AddAggregated folds in a path already at the graph's level.
func (g *Graph) AddAggregated(p pathdb.Path) {
	if len(p) == 0 {
		return
	}
	g.paths++
	if g.root.owner != g.owner {
		g.root = g.own(g.root)
	}
	cur := g.root
	for _, st := range p {
		cur.Transitions.Observe(int64(st.Location))
		next := g.ownedChild(cur, st.Location)
		next.Count++
		next.Durations.Observe(st.Duration)
		cur = next
	}
	cur.Transitions.Observe(Terminate)
}

// NodeAt resolves the node for a location-sequence prefix, or nil.
func (g *Graph) NodeAt(seq []hierarchy.NodeID) *Node {
	cur := g.root
	for _, l := range seq {
		cur = cur.Child(l)
		if cur == nil {
			return nil
		}
	}
	return cur
}

// Merge folds other's counts into g (paper Lemma 4.2: duration and
// transition distributions are algebraic). Both graphs must be at the same
// path abstraction level. Exceptions are holistic (Lemma 4.3) and are
// cleared; re-mine them if needed. Like AddPath, it copies the nodes of g it
// writes when g is a Fork; other is only read.
func (g *Graph) Merge(other *Graph) error {
	if other == nil {
		return nil
	}
	if g.level.Key() != other.level.Key() {
		return fmt.Errorf("flowgraph: cannot merge graphs at different path levels %q and %q",
			g.level.Key(), other.level.Key())
	}
	g.paths += other.paths
	g.exceptions = nil
	if g.root.owner != g.owner {
		g.root = g.own(g.root)
	}
	g.mergeNode(g.root, other.root)
	return nil
}

// mergeNode folds src's subtree into dst, which g owns.
func (g *Graph) mergeNode(dst, src *Node) {
	dst.Count += src.Count
	dst.Durations.Merge(src.Durations)
	dst.Transitions.Merge(src.Transitions)
	for _, sc := range src.children {
		g.mergeNode(g.ownedChild(dst, sc.Location), sc)
	}
}

// Clone returns a deep copy of the graph including exceptions' conditional
// distributions (which are re-pointed at the cloned nodes).
func (g *Graph) Clone() *Graph {
	c := New(g.loc, g.level, g.merge)
	c.paths = g.paths
	c.mergeNode(c.root, g.root)
	for _, x := range g.exceptions {
		c.exceptions = append(c.exceptions, Exception{
			Node:                c.NodeAt(x.Prefix),
			Prefix:              append([]hierarchy.NodeID(nil), x.Prefix...),
			Condition:           append([]StagePin(nil), x.Condition...),
			Support:             x.Support,
			Durations:           x.Durations.Clone(),
			Transitions:         x.Transitions.Clone(),
			DurationDeviation:   x.DurationDeviation,
			TransitionDeviation: x.TransitionDeviation,
		})
	}
	return c
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
				frac = n.Transitions.Prob(int64(c.Location))
			}
			fmt.Fprintf(&b, "%s%s p=%.2f dur[%s]", indent, g.loc.Name(c.Location), frac, c.Durations)
			if t := c.TerminationProb(); t > 0 {
				fmt.Fprintf(&b, " term=%.2f", t)
			}
			b.WriteByte('\n')
			rec(c, indent+"  ")
		}
	}
	rec(g.root, "  ")
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
			label = fmt.Sprintf("%s\\ndur %s", dotLabelEscaper.Replace(g.loc.Name(n.Location)), n.Durations)
			if t := n.TerminationProb(); t > 0 {
				label += fmt.Sprintf("\\nterm %.2f", t)
			}
		}
		fmt.Fprintf(&b, "  %s [label=\"%s\"];\n", id, label)
		for _, c := range n.Children() {
			cid := fmt.Sprintf("%s_%d", id, c.Location)
			fmt.Fprintf(&b, "  %s -> %s [label=\"%.2f\"];\n", id, cid, n.Transitions.Prob(int64(c.Location)))
			rec(c, cid)
		}
	}
	rec(g.root, "root")
	b.WriteString("}\n")
	return b.String()
}
