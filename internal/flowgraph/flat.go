package flowgraph

// Columnar (struct-of-arrays) form of a flowgraph: the form a graph rests
// in (Graph.Rest) and the layout the snapshot codec serializes. Flatten
// walks the prefix tree breadth-first — children sorted by location, exactly
// the order Children() reports — so every node's children occupy one
// contiguous index range and a single sentinel ChildLo slice describes the
// whole tree shape, mirroring itemset.Trie. All duration distributions are
// pooled into one shared Outcomes/Weights pair with per-node offsets;
// exceptions and their condition pins are flat tables of the same style.
// The columns hold no transition distribution, and neither does the
// snapshot: a node's is its children's counts and the paths that end at it,
// read off the columns where it is needed. Check validates the invariants,
// those counts' among them, without allocating, and Unflatten runs it and
// then rebuilds the pointer tree by carving nodes, distributions, pins and
// exceptions out of single backing allocations.

import (
	"fmt"

	"flowcube/internal/hierarchy"
	"flowcube/internal/pathdb"
	"flowcube/internal/stats"
)

// Flat is a flowgraph in columnar form. Node 0 is the virtual root (its
// Locations entry is hierarchy.Root and its Counts entry 0); the remaining
// nodes follow in BFS order with children sorted by location id.
type Flat struct {
	// Paths is Graph.Paths().
	Paths int64

	// Locations and Counts are per-node columns; ChildLo has one extra
	// sentinel entry, so node i's children are the index range
	// [ChildLo[i], ChildLo[i+1]).
	Locations []int32
	Counts    []int64
	ChildLo   []int32

	// DurLo indexes the pooled distribution columns: node i's duration
	// distribution is Outcomes[DurLo[i]:DurLo[i+1]] with parallel Weights.
	// DurLo carries the sentinel (len(Locations)+1 entries).
	DurLo    []int32
	Outcomes []int64
	Weights  []int64

	// Exceptions as flat tables: exception j deviates at node ExcNode[j],
	// its condition pins are the range [ExcPinLo[j], ExcPinLo[j+1]) of the
	// Pin* columns, and its conditional distributions live in the pooled
	// ExcOutcomes/ExcWeights columns: its duration distribution at
	// [ExcDurLo[j], ExcTrLo[j]), its transition distribution at
	// [ExcTrLo[j], ExcDurLo[j+1]).
	ExcNode     []int32
	ExcSupport  []int64
	ExcDurDev   []float64
	ExcTrDev    []float64
	ExcPinLo    []int32
	PinDepth    []int32
	PinLoc      []int32
	PinDur      []int64
	PinDurAny   []bool
	ExcDurLo    []int32
	ExcTrLo     []int32
	ExcOutcomes []int64
	ExcWeights  []int64
}

// NumNodes reports the node count including the virtual root.
func (f *Flat) NumNodes() int { return len(f.Locations) }

// Flatten returns the graph in columnar form: a resting graph's own
// columns (Columns), which callers must not modify, or its tree laid out in
// new ones.
func Flatten(g *Graph) *Flat {
	if c := g.Columns(); c != nil {
		return c
	}
	root, xs := g.tree()
	f := flatten(root, g.paths, xs)
	return &f
}

// flatten lays a tree and its exceptions out in columns, each allocated at
// the size it ends up.
func flatten(root *Node, paths int64, xs []Exception) Flat {
	// Only exception nodes need their BFS index looked up, so only they are
	// keyed; one missing from the tree keeps index 0.
	var index map[*Node]int32
	if len(xs) > 0 {
		index = make(map[*Node]int32, len(xs))
		for _, x := range xs {
			index[x.Node] = 0
		}
	}
	order := []*Node{root}
	outcomes := 0
	for i := 0; i < len(order); i++ {
		o, _ := order[i].Durations.Columns()
		outcomes += len(o)
		for _, c := range order[i].Children() {
			if _, ok := index[c]; ok {
				index[c] = int32(len(order))
			}
			order = append(order, c)
		}
	}
	n := len(order)
	f := Flat{
		Paths:     paths,
		Locations: make([]int32, n),
		Counts:    make([]int64, n),
		ChildLo:   make([]int32, n+1),
		DurLo:     make([]int32, n+1),
		Outcomes:  make([]int64, 0, outcomes),
		Weights:   make([]int64, 0, outcomes),
	}
	next := int32(1)
	for i, node := range order {
		f.Locations[i] = int32(node.Location)
		f.Counts[i] = node.Count
		f.ChildLo[i] = next
		next += int32(len(node.children))
		f.DurLo[i] = int32(len(f.Outcomes))
		f.Outcomes, f.Weights = node.Durations.AppendSorted(f.Outcomes, f.Weights)
	}
	f.ChildLo[n] = next
	f.DurLo[n] = int32(len(f.Outcomes))

	m, pins, pool := len(xs), 0, 0
	for _, x := range xs {
		o, _ := x.Durations.Columns()
		t, _ := x.Transitions.Columns()
		pins += len(x.Condition)
		pool += len(o) + len(t)
	}
	if m > 0 {
		f.ExcNode, f.ExcSupport = make([]int32, 0, m), make([]int64, 0, m)
		f.ExcDurDev, f.ExcTrDev = make([]float64, 0, m), make([]float64, 0, m)
		f.ExcPinLo, f.ExcDurLo, f.ExcTrLo = make([]int32, 0, m+1), make([]int32, 0, m+1), make([]int32, 0, m)
	}
	if pins > 0 {
		f.PinDepth, f.PinLoc = make([]int32, 0, pins), make([]int32, 0, pins)
		f.PinDur, f.PinDurAny = make([]int64, 0, pins), make([]bool, 0, pins)
	}
	if pool > 0 {
		f.ExcOutcomes, f.ExcWeights = make([]int64, 0, pool), make([]int64, 0, pool)
	}
	for _, x := range xs {
		f.ExcNode = append(f.ExcNode, index[x.Node])
		f.ExcSupport = append(f.ExcSupport, x.Support)
		f.ExcDurDev = append(f.ExcDurDev, x.DurationDeviation)
		f.ExcTrDev = append(f.ExcTrDev, x.TransitionDeviation)
		f.ExcPinLo = append(f.ExcPinLo, int32(len(f.PinDepth)))
		for _, p := range x.Condition {
			f.PinDepth = append(f.PinDepth, int32(p.Depth))
			f.PinLoc = append(f.PinLoc, int32(p.Location))
			f.PinDur = append(f.PinDur, p.Duration)
			f.PinDurAny = append(f.PinDurAny, p.DurAny)
		}
		f.ExcDurLo = append(f.ExcDurLo, int32(len(f.ExcOutcomes)))
		f.ExcOutcomes, f.ExcWeights = x.Durations.AppendSorted(f.ExcOutcomes, f.ExcWeights)
		f.ExcTrLo = append(f.ExcTrLo, int32(len(f.ExcOutcomes)))
		f.ExcOutcomes, f.ExcWeights = x.Transitions.AppendSorted(f.ExcOutcomes, f.ExcWeights)
	}
	f.ExcPinLo = append(f.ExcPinLo, int32(len(f.PinDepth)))
	f.ExcDurLo = append(f.ExcDurLo, int32(len(f.ExcOutcomes)))
	return f
}

// validate checks every structural invariant of the columnar form before
// Unflatten allocates anything proportional to the claimed sizes beyond the
// columns themselves (which the snapshot decoder already bounded against
// the input length).
func (f *Flat) validate() error {
	n := len(f.Locations)
	if n < 1 {
		return fmt.Errorf("flowgraph: flat graph has no root node")
	}
	if len(f.Counts) != n || len(f.ChildLo) != n+1 || len(f.DurLo) != n+1 {
		return fmt.Errorf("flowgraph: flat node columns have inconsistent lengths")
	}
	if len(f.Outcomes) != len(f.Weights) {
		return fmt.Errorf("flowgraph: flat outcome/weight columns differ in length")
	}
	if f.ChildLo[0] != 1 || f.ChildLo[n] != int32(n) {
		return fmt.Errorf("flowgraph: flat child ranges do not cover the node set")
	}
	for i := 0; i < n; i++ {
		// BFS order: children of node i form a contiguous range strictly
		// after i. Monotone ranges with these bounds partition [1, n), so
		// every non-root node has exactly one parent and cycles are
		// impossible.
		if f.ChildLo[i] < int32(i)+1 || f.ChildLo[i+1] < f.ChildLo[i] {
			return fmt.Errorf("flowgraph: flat child range of node %d is malformed", i)
		}
		if f.DurLo[i] > f.DurLo[i+1] {
			return fmt.Errorf("flowgraph: flat distribution range of node %d is malformed", i)
		}
		if f.Counts[i] < 0 {
			return fmt.Errorf("flowgraph: flat node %d has negative count", i)
		}
	}
	if f.DurLo[0] != 0 || f.DurLo[n] != int32(len(f.Outcomes)) {
		return fmt.Errorf("flowgraph: flat distribution ranges do not cover the outcome pool")
	}
	m := len(f.ExcNode)
	if m == 0 && len(f.PinDepth) == 0 && len(f.ExcOutcomes) == 0 && len(f.ExcPinLo) == 0 &&
		len(f.ExcSupport) == 0 && len(f.ExcDurDev) == 0 && len(f.ExcTrDev) == 0 &&
		len(f.ExcDurLo) == 0 && len(f.ExcTrLo) == 0 && len(f.PinLoc) == 0 &&
		len(f.PinDur) == 0 && len(f.PinDurAny) == 0 && len(f.ExcWeights) == 0 {
		// Exception-free graphs may omit the sentinel columns entirely (the
		// snapshot decoder leaves them nil).
		return nil
	}
	if len(f.ExcSupport) != m || len(f.ExcDurDev) != m || len(f.ExcTrDev) != m ||
		len(f.ExcPinLo) != m+1 || len(f.ExcDurLo) != m+1 || len(f.ExcTrLo) != m {
		return fmt.Errorf("flowgraph: flat exception columns have inconsistent lengths")
	}
	p := len(f.PinDepth)
	if len(f.PinLoc) != p || len(f.PinDur) != p || len(f.PinDurAny) != p {
		return fmt.Errorf("flowgraph: flat pin columns have inconsistent lengths")
	}
	if len(f.ExcOutcomes) != len(f.ExcWeights) {
		return fmt.Errorf("flowgraph: flat exception outcome/weight columns differ in length")
	}
	if m > 0 || p > 0 || len(f.ExcOutcomes) > 0 {
		if len(f.ExcPinLo) == 0 || f.ExcPinLo[0] != 0 || f.ExcPinLo[m] != int32(p) {
			return fmt.Errorf("flowgraph: flat pin ranges do not cover the pin pool")
		}
		if f.ExcDurLo[0] != 0 || f.ExcDurLo[m] != int32(len(f.ExcOutcomes)) {
			return fmt.Errorf("flowgraph: flat exception distribution ranges do not cover the pool")
		}
	}
	for j := 0; j < m; j++ {
		if f.ExcNode[j] < 0 || int(f.ExcNode[j]) >= n {
			return fmt.Errorf("flowgraph: exception %d references node %d of %d", j, f.ExcNode[j], n)
		}
		if f.ExcPinLo[j+1] < f.ExcPinLo[j] {
			return fmt.Errorf("flowgraph: flat pin range of exception %d is malformed", j)
		}
		if f.ExcDurLo[j] > f.ExcTrLo[j] || f.ExcTrLo[j] > f.ExcDurLo[j+1] {
			return fmt.Errorf("flowgraph: flat distribution range of exception %d is malformed", j)
		}
	}
	return nil
}

// Check reports the first reason Unflatten would refuse f at loc, or nil:
// the structural invariants of the columnar form, the rules checkNodes and
// checkPins apply, and every pooled distribution strictly ascending by
// outcome with non-negative weights. It allocates nothing, and a graph that
// passes it unflattens without error, so a caller that only needs to know
// whether a graph decodes — a snapshot verify walk — runs Check and builds
// no tree.
func (f *Flat) Check(loc *hierarchy.Hierarchy) error {
	if err := f.validate(); err != nil {
		return err
	}
	if err := f.checkNodes(loc); err != nil {
		return err
	}
	if err := f.checkPins(loc); err != nil {
		return err
	}
	if err := checkDists(f.Outcomes, f.Weights, f.DurLo, f.DurLo[1:]); err != nil {
		return err
	}
	if err := checkDists(f.ExcOutcomes, f.ExcWeights, f.ExcDurLo, f.ExcTrLo); err != nil {
		return err
	}
	if len(f.ExcTrLo) == 0 {
		return nil
	}
	// Exception j's transition distribution is [ExcTrLo[j], ExcDurLo[j+1]).
	return checkDists(f.ExcOutcomes, f.ExcWeights, f.ExcTrLo, f.ExcDurLo[1:])
}

// checkNodes checks every node's location against loc and the counts its
// transition distribution is read from: its children in strictly ascending
// location order, each reached by at least one path, and together by no
// more paths than reach the node (the rest end there) — at the root, by
// exactly Paths, since no path ends at the root. Counts are non-negative
// (validate), so the running budget cannot overflow.
func (f *Flat) checkNodes(loc *hierarchy.Hierarchy) error {
	locs, counts, childLo := f.Locations, f.Counts, f.ChildLo
	for i, l := range locs {
		if l < 0 || int(l) >= loc.Len() {
			return fmt.Errorf("flowgraph: node %d location %d outside hierarchy of %d nodes", i, l, loc.Len())
		}
		total := counts[i]
		if i == 0 {
			total = f.Paths
		}
		budget := total
		lo, hi := childLo[i], childLo[i+1]
		for j := lo; j < hi; j++ {
			if j > lo && locs[j-1] >= locs[j] {
				return fmt.Errorf("flowgraph: node %d has child locations out of order or duplicated", i)
			}
			if counts[j] == 0 {
				return fmt.Errorf("flowgraph: node %d has a child no path reaches", i)
			}
			if counts[j] > budget {
				return fmt.Errorf("flowgraph: node %d's children hold more than its %d paths", i, total)
			}
			budget -= counts[j]
		}
		if i == 0 && budget != 0 {
			return fmt.Errorf("flowgraph: the root's children hold %d paths, not the graph's %d", total-budget, total)
		}
	}
	return nil
}

// checkPins checks every exception pin names a stage a path can have: a
// depth of at least 1 and a location inside loc.
func (f *Flat) checkPins(loc *hierarchy.Hierarchy) error {
	for i, l := range f.PinLoc {
		if l < 0 || int(l) >= loc.Len() {
			return fmt.Errorf("flowgraph: pin %d location %d outside hierarchy of %d nodes", i, l, loc.Len())
		}
		if f.PinDepth[i] < 1 {
			return fmt.Errorf("flowgraph: pin %d has depth %d", i, f.PinDepth[i])
		}
	}
	return nil
}

// checkDists refuses what Multinomial.InitSorted refuses of the
// distributions a validated pair of offset columns cuts out of pooled
// outcome and weight columns, [lo[i], hi[i]) for each i of hi: a negative
// weight, or outcomes not strictly ascending within one distribution.
func checkDists(outcomes, weights []int64, lo, hi []int32) error {
	for i := range hi {
		o, w := outcomes[lo[i]:hi[i]], weights[lo[i]:hi[i]]
		for k := range o {
			if w[k] < 0 {
				return fmt.Errorf("flowgraph: flat weight %d negative at pool index %d", w[k], lo[i]+int32(k))
			}
			if k > 0 && o[k-1] >= o[k] {
				return fmt.Errorf("flowgraph: flat outcomes not strictly increasing at pool index %d", lo[i]+int32(k))
			}
		}
	}
	return nil
}

// Unflatten checks the columnar form (Check) and rebuilds the pointer graph
// for paths at the given level.
func Unflatten(loc *hierarchy.Hierarchy, level pathdb.PathLevel, f *Flat) (*Graph, error) {
	if err := f.Check(loc); err != nil {
		return nil, err
	}
	root, xs, err := f.tree(0, true)
	if err != nil {
		return nil, err
	}
	return &Graph{level: level, loc: loc, root: root, paths: f.Paths, exceptions: xs}, nil
}

// tree builds the pointer tree and the exceptions of checked columns, every
// node tagged owner. Pins and exceptions are carved out of one backing
// allocation each. With carve, so are the nodes and their child lists — BFS
// order puts a node's children side by side, so each list is a window of
// one pointer array — which leaves one allocation per non-empty
// distribution: what a decode wants. Without it each node and child list
// is an allocation of its own: what a thaw wants, whose tree forks copy a
// path of at a time, since an array lives on while any node in it does.
func (f *Flat) tree(owner uint32, carve bool) (*Node, []Exception, error) {
	n := f.NumNodes()
	ptrs := make([]*Node, n)
	if carve {
		nodes := make([]Node, n)
		for i := range nodes {
			ptrs[i] = &nodes[i]
		}
	} else {
		for i := range ptrs {
			ptrs[i] = new(Node)
		}
	}
	for i, nd := range ptrs {
		nd.Location = hierarchy.NodeID(f.Locations[i])
		nd.owner = owner
		nd.Count = f.Counts[i]
		lo, hi := f.DurLo[i], f.DurLo[i+1]
		if err := nd.Durations.InitSorted(f.Outcomes[lo:hi], f.Weights[lo:hi]); err != nil {
			return nil, nil, err
		}
		lo, hi = f.ChildLo[i], f.ChildLo[i+1]
		for j := lo; j < hi; j++ {
			ptrs[j].Depth = nd.Depth + 1
		}
		switch {
		case carve:
			nd.children = ptrs[lo:hi:hi]
		case hi > lo:
			nd.children = append([]*Node(nil), ptrs[lo:hi]...)
		}
	}
	m := len(f.ExcNode)
	if m == 0 {
		return ptrs[0], nil, nil
	}
	node := func(idx int32, _ int) *Node { return ptrs[idx] }
	xs, err := f.exceptions(node, make([]stats.Multinomial, 2*m))
	return ptrs[0], xs, err
}

// exceptions decodes the exception table of a validated flat graph with at
// least one exception: node maps an exception's node index and depth to the
// node it names, and dists holds two distributions per exception.
func (f *Flat) exceptions(node func(idx int32, depth int) *Node, dists []stats.Multinomial) ([]Exception, error) {
	pins := make([]StagePin, len(f.PinDepth))
	for i := range pins {
		pins[i] = StagePin{
			Depth:    int(f.PinDepth[i]),
			Location: hierarchy.NodeID(f.PinLoc[i]),
			Duration: f.PinDur[i],
			DurAny:   f.PinDurAny[i],
		}
	}
	dist := func(k int, lo, hi int32) (*stats.Multinomial, error) {
		d := &dists[k]
		if err := d.InitSorted(f.ExcOutcomes[lo:hi], f.ExcWeights[lo:hi]); err != nil {
			return nil, err
		}
		return d, nil
	}
	prefixOf := f.prefixes()
	out := make([]Exception, len(f.ExcNode))
	var err error
	for j := range out {
		x := &out[j]
		x.Prefix = prefixOf(f.ExcNode[j])
		x.Node = node(f.ExcNode[j], len(x.Prefix))
		x.Condition = pins[f.ExcPinLo[j]:f.ExcPinLo[j+1]:f.ExcPinLo[j+1]]
		x.Support = f.ExcSupport[j]
		x.DurationDeviation = f.ExcDurDev[j]
		x.TransitionDeviation = f.ExcTrDev[j]
		if x.Durations, err = dist(2*j, f.ExcDurLo[j], f.ExcTrLo[j]); err != nil {
			return nil, err
		}
		if x.Transitions, err = dist(2*j+1, f.ExcTrLo[j], f.ExcDurLo[j+1]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// prefixes returns a function from a node index to the node's location
// prefix. It inverts the BFS child ranges into a parent column; validate
// proved the ranges partition [1, n), so every non-root node has exactly
// one parent.
func (f *Flat) prefixes() func(idx int32) []hierarchy.NodeID {
	n := f.NumNodes()
	parent := make([]int32, n)
	for i := 0; i < n; i++ {
		for j := f.ChildLo[i]; j < f.ChildLo[i+1]; j++ {
			parent[j] = int32(i)
		}
	}
	return func(idx int32) []hierarchy.NodeID {
		var seq []hierarchy.NodeID
		for ; idx != 0; idx = parent[idx] {
			seq = append(seq, hierarchy.NodeID(f.Locations[idx]))
		}
		for i, j := 0, len(seq)-1; i < j; i, j = i+1, j-1 {
			seq[i], seq[j] = seq[j], seq[i]
		}
		return seq
	}
}

// FlatExceptions extracts a flat graph's exception table without rebuilding
// the pointer tree — the lazy loader's exception scans call it so TopK
// queries over a mapped snapshot never materialize a cell. Exceptions come
// back in flat (mining) order with the same Support, Condition, deviations
// Prefix and conditional distributions Unflatten would produce, and it
// refuses what Unflatten refuses at loc (Check). Each Node is a stub with
// Location, Depth and Count set (enough for rendering) but an empty duration
// distribution and no children.
func FlatExceptions(f *Flat, loc *hierarchy.Hierarchy) ([]Exception, error) {
	if err := f.Check(loc); err != nil {
		return nil, err
	}
	m := len(f.ExcNode)
	if m == 0 {
		return nil, nil
	}
	stubs := make(map[int32]*Node, m)
	stub := func(idx int32, depth int) *Node {
		if stubs[idx] == nil {
			stubs[idx] = &Node{Location: hierarchy.NodeID(f.Locations[idx]), Depth: depth, Count: f.Counts[idx]}
		}
		return stubs[idx]
	}
	return f.exceptions(stub, make([]stats.Multinomial, 2*m))
}
