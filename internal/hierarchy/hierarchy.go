// Package hierarchy implements concept hierarchies and the abstraction
// machinery the flowcube is defined over (paper §4.1).
//
// A concept hierarchy is a tree whose nodes are concepts and whose edges are
// is-a relationships. The most general concept "*" is the root at level 0;
// the most concrete concepts are the leaves. Every dimension of the path
// database — the path-independent item dimensions as well as the stage
// location and duration dimensions — carries one hierarchy.
//
// Two abstraction devices are built on top:
//
//   - a level (an integer depth) for item dimensions, combined across
//     dimensions into the item abstraction lattice, and
//   - a Cut for the location hierarchy: an antichain of concepts that covers
//     every leaf, generalizing the paper's Figure 5 where a transportation
//     manager keeps transport locations at full detail while collapsing
//     store and factory locations.
package hierarchy

import (
	"fmt"
	"sort"
	"strings"
)

// NodeID identifies a concept within one Hierarchy. The root "*" is always
// node 0. IDs are dense and stable for the life of the hierarchy.
type NodeID int32

// Root is the NodeID of the apex concept "*" in every hierarchy.
const Root NodeID = 0

// RootName is the display name of the apex concept.
const RootName = "*"

type node struct {
	name     string
	parent   NodeID
	level    int
	children []NodeID
}

// Hierarchy is a concept hierarchy. Construct with New and populate with
// Add; a Hierarchy is immutable once shared and safe for concurrent reads.
type Hierarchy struct {
	name   string
	nodes  []node
	byName map[string]NodeID
	depth  int
}

// New returns a hierarchy for the named dimension containing only the root
// concept "*".
func New(dimension string) *Hierarchy {
	h := &Hierarchy{
		name:   dimension,
		nodes:  []node{{name: RootName, parent: -1, level: 0}},
		byName: map[string]NodeID{RootName: Root},
	}
	return h
}

// Dimension reports the name of the dimension this hierarchy describes.
func (h *Hierarchy) Dimension() string { return h.name }

// Add inserts concept child under the named parent and returns its id.
// Concept names must be unique within a hierarchy; Add returns an error for
// duplicates or unknown parents.
func (h *Hierarchy) Add(parent, child string) (NodeID, error) {
	p, ok := h.byName[parent]
	if !ok {
		return 0, fmt.Errorf("hierarchy %q: unknown parent concept %q", h.name, parent)
	}
	if _, dup := h.byName[child]; dup {
		return 0, fmt.Errorf("hierarchy %q: duplicate concept %q", h.name, child)
	}
	id := NodeID(len(h.nodes))
	lvl := h.nodes[p].level + 1
	h.nodes = append(h.nodes, node{name: child, parent: p, level: lvl})
	h.nodes[p].children = append(h.nodes[p].children, id)
	h.byName[child] = id
	if lvl > h.depth {
		h.depth = lvl
	}
	return id, nil
}

// MustAdd is Add for static construction; it panics on error.
func (h *Hierarchy) MustAdd(parent, child string) NodeID {
	id, err := h.Add(parent, child)
	if err != nil {
		panic(err)
	}
	return id
}

// AddPath inserts every missing concept along the given root-to-leaf chain
// (excluding the root) and returns the id of the last one. Existing
// concepts are reused, so AddPath("clothing","outerwear","jacket") then
// AddPath("clothing","outerwear","shirt") builds the paper's Figure-2 tree.
// It is an error if an existing concept appears under a different parent.
func (h *Hierarchy) AddPath(chain ...string) (NodeID, error) {
	parent := RootName
	var id NodeID
	for _, c := range chain {
		if existing, ok := h.byName[c]; ok {
			if h.nodes[existing].parent != h.byName[parent] {
				return 0, fmt.Errorf("hierarchy %q: concept %q already exists under %q, not %q",
					h.name, c, h.nodes[h.nodes[existing].parent].name, parent)
			}
			id = existing
		} else {
			var err error
			id, err = h.Add(parent, c)
			if err != nil {
				return 0, err
			}
		}
		parent = c
	}
	return id, nil
}

// MustAddPath is AddPath for static construction; it panics on error.
func (h *Hierarchy) MustAddPath(chain ...string) NodeID {
	id, err := h.AddPath(chain...)
	if err != nil {
		panic(err)
	}
	return id
}

// Len reports the number of concepts including the root.
func (h *Hierarchy) Len() int { return len(h.nodes) }

// Depth reports the deepest level present (root = 0).
func (h *Hierarchy) Depth() int { return h.depth }

// Name reports the display name of a concept.
func (h *Hierarchy) Name(id NodeID) string { return h.nodes[id].name }

// Level reports the level of a concept (root = 0).
func (h *Hierarchy) Level(id NodeID) int { return h.nodes[id].level }

// Parent reports the parent of a concept; the root's parent is -1.
func (h *Hierarchy) Parent(id NodeID) NodeID { return h.nodes[id].parent }

// Children returns the direct children of a concept in insertion order. The
// returned slice is owned by the hierarchy and must not be modified.
func (h *Hierarchy) Children(id NodeID) []NodeID { return h.nodes[id].children }

// IsLeaf reports whether the concept has no children.
func (h *Hierarchy) IsLeaf(id NodeID) bool { return len(h.nodes[id].children) == 0 }

// Lookup resolves a concept name; ok is false if absent.
func (h *Hierarchy) Lookup(name string) (NodeID, bool) {
	id, ok := h.byName[name]
	return id, ok
}

// MustLookup resolves a concept name and panics if it is absent. Intended
// for statically-known names in examples and tests.
func (h *Hierarchy) MustLookup(name string) NodeID {
	id, ok := h.byName[name]
	if !ok {
		panic(fmt.Sprintf("hierarchy %q: unknown concept %q", h.name, name))
	}
	return id
}

// AncestorAt returns the ancestor of id at the requested level. If the
// concept is already above that level it is returned unchanged.
func (h *Hierarchy) AncestorAt(id NodeID, level int) NodeID {
	for h.nodes[id].level > level {
		id = h.nodes[id].parent
	}
	return id
}

// IsAncestorOrSelf reports whether a is an ancestor of b or equal to it.
func (h *Hierarchy) IsAncestorOrSelf(a, b NodeID) bool {
	for {
		if a == b {
			return true
		}
		p := h.nodes[b].parent
		if p < 0 {
			return false
		}
		b = p
	}
}

// Leaves returns all leaf concepts in id order.
func (h *Hierarchy) Leaves() []NodeID {
	var out []NodeID
	for i := range h.nodes {
		if len(h.nodes[i].children) == 0 {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// NodesAtLevel returns all concepts at exactly the given level, in id order.
func (h *Hierarchy) NodesAtLevel(level int) []NodeID {
	var out []NodeID
	for i := range h.nodes {
		if h.nodes[i].level == level {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// String renders the hierarchy as an indented tree, mainly for debugging
// and documentation output.
func (h *Hierarchy) String() string {
	var b strings.Builder
	var walk func(id NodeID, indent int)
	walk = func(id NodeID, indent int) {
		b.WriteString(strings.Repeat("  ", indent))
		b.WriteString(h.nodes[id].name)
		b.WriteByte('\n')
		for _, c := range h.nodes[id].children {
			walk(c, indent+1)
		}
	}
	walk(Root, 0)
	return b.String()
}

// Generate builds a balanced hierarchy for the named dimension with the
// given fanout per level: fanouts[i] children under every node at level i.
// Concept names are of the form "<dim>.<l1>[.<l2>...]" so generated
// hierarchies are self-describing. This is the shape the paper's synthetic
// generator uses (3-level item hierarchies, 2-level location hierarchies)
// with configurable distinct values per level.
func Generate(dimension string, fanouts ...int) *Hierarchy {
	h := New(dimension)
	frontier := []NodeID{Root}
	for _, fan := range fanouts {
		var next []NodeID
		for _, p := range frontier {
			for c := 0; c < fan; c++ {
				name := fmt.Sprintf("%s.%d", h.nodes[p].name, c)
				if p == Root {
					name = fmt.Sprintf("%s.%d", dimension, c)
				}
				id := h.MustAdd(h.nodes[p].name, name)
				next = append(next, id)
			}
		}
		frontier = next
	}
	return h
}

// A Cut selects the concepts a path abstraction level keeps (paper §4.1,
// Figure 5): a set of concepts covering every leaf, where each leaf maps to
// its *deepest* selected ancestor-or-self. The set need not be an
// antichain — Figure 5's cut ⟨dist.center, truck, warehouse, factory,
// store⟩ contains both store and its child warehouse, meaning the warehouse
// is kept at full detail while backroom/shelf/checkout collapse into store.
// A Cut is immutable once built.
type Cut struct {
	h     *Hierarchy
	nodes []NodeID
	set   map[NodeID]bool
	cover map[NodeID]NodeID // leaf -> deepest selected ancestor
	key   string
}

// NewCut validates the node set as a proper cut of h and returns it.
func NewCut(h *Hierarchy, nodes []NodeID) (*Cut, error) {
	return newCut(h, nodes)
}

func newCut(h *Hierarchy, nodes []NodeID) (*Cut, error) {
	set := make(map[NodeID]bool, len(nodes))
	for _, n := range nodes {
		if int(n) < 0 || int(n) >= len(h.nodes) {
			return nil, fmt.Errorf("hierarchy %q: cut node %d out of range", h.name, n)
		}
		if set[n] {
			return nil, fmt.Errorf("hierarchy %q: duplicate cut node %q", h.name, h.Name(n))
		}
		set[n] = true
	}
	cover := make(map[NodeID]NodeID)
	for _, leaf := range h.Leaves() {
		var found NodeID = -1
		// Walk upward from the leaf; the first selected concept found is
		// the deepest, which is the one the cut keeps.
		for cur := leaf; cur >= 0; cur = h.nodes[cur].parent {
			if set[cur] {
				found = cur
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("hierarchy %q: leaf %q not covered by cut", h.name, h.Name(leaf))
		}
		cover[leaf] = found
	}
	sorted := append([]NodeID(nil), nodes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	parts := make([]string, len(sorted))
	for i, n := range sorted {
		parts[i] = h.Name(n)
	}
	return &Cut{h: h, nodes: sorted, set: set, cover: cover, key: strings.Join(parts, "|")}, nil
}

// CutByNames builds a cut from concept names.
func CutByNames(h *Hierarchy, names ...string) (*Cut, error) {
	ids := make([]NodeID, 0, len(names))
	for _, n := range names {
		id, ok := h.Lookup(n)
		if !ok {
			return nil, fmt.Errorf("hierarchy %q: unknown concept %q in cut", h.name, n)
		}
		ids = append(ids, id)
	}
	return newCut(h, ids)
}

// LevelCut builds the uniform cut at the given level: every leaf maps to
// its ancestor at that level (or to itself when shallower). LevelCut(depth)
// is the identity cut; LevelCut(1) aggregates to top-level concepts.
func LevelCut(h *Hierarchy, level int) *Cut {
	set := make(map[NodeID]bool)
	for _, leaf := range h.Leaves() {
		set[h.AncestorAt(leaf, level)] = true
	}
	nodes := make([]NodeID, 0, len(set))
	for n := range set {
		nodes = append(nodes, n)
	}
	c, err := newCut(h, nodes)
	if err != nil {
		// A level cut of ancestors of leaves is always a valid cut.
		panic(fmt.Sprintf("hierarchy: internal error building level cut: %v", err))
	}
	return c
}

// Nodes returns the cut's concepts in id order; the slice is owned by the
// cut and must not be modified.
func (c *Cut) Nodes() []NodeID { return c.nodes }

// Key returns a canonical string identity for the cut, usable as a map key.
func (c *Cut) Key() string { return c.key }

// Map returns the cut concept covering the given (leaf or internal)
// concept: its deepest selected ancestor-or-self. Concepts above every
// selected node (such as the root) map to themselves.
func (c *Cut) Map(id NodeID) NodeID {
	if m, ok := c.cover[id]; ok {
		return m
	}
	for cur := id; cur >= 0; cur = c.h.nodes[cur].parent {
		if c.set[cur] {
			return cur
		}
	}
	return id
}

// Refines reports whether c is at least as detailed as other: every node of
// c maps under other to a single covering node (i.e. other can be obtained
// from c by aggregation only).
func (c *Cut) Refines(other *Cut) bool {
	for _, n := range c.nodes {
		covered := false
		for _, o := range other.nodes {
			if c.h.IsAncestorOrSelf(o, n) {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}
