package flowgraph

// A graph at rest is its columns. Every graph outside a miner rests: Rest
// replaces a built tree and its exceptions with exact-sized Flat columns, a
// fraction of the tree's bytes, Unflatten returns a decoded graph resting
// on the columns it checked, and Fold returns its inputs' fold at rest.
// The columns never change again, so a resting graph is shared by pointer
// between cube generations. Readers that need nodes thaw a read-only copy
// of the tree per call; a writer takes a Thaw, a private tree it may add
// paths to and mine, then put to rest.

// Rest puts a tree graph to rest: its tree and exceptions are replaced by
// columns. A graph already at rest is left as it is.
func (g *Graph) Rest() {
	if g.cols != nil {
		return
	}
	cols := flatten(g.root, g.paths, g.exceptions)
	g.cols, g.root, g.exceptions = &cols, nil, nil
}

// Columns returns the columns of a graph at rest, or nil for a tree. They
// are the graph's own and never change: callers read them and must not
// modify them.
func (g *Graph) Columns() *Flat { return g.cols }

// Thaw returns a writable tree copy of g, its exceptions included: the
// graph a miner adds paths to and re-mines before putting it to rest. g is
// left as it was.
func (g *Graph) Thaw() *Graph {
	root, xs := Flatten(g).thaw()
	return &Graph{level: g.level, merge: g.merge, loc: g.loc, paths: g.paths, root: root, exceptions: xs}
}

// tree returns the graph's tree and exceptions: a tree graph's own, or a
// copy thawed from a resting graph's columns for this caller alone.
func (g *Graph) tree() (*Node, []Exception) {
	if g.cols == nil {
		return g.root, g.exceptions
	}
	return g.cols.thaw()
}

// writable panics unless g is a tree: the columns of a resting graph are
// shared and never change.
func (g *Graph) writable() {
	if g.cols != nil {
		panic("flowgraph: write to a resting graph; write to its Thaw")
	}
}
