package flowgraph

import (
	"sync"
	"sync/atomic"
)

// A graph at rest is its columns. A finished graph that many readers may
// never ask for nodes — a cube's cell — rests: Rest replaces a built tree
// and its exceptions with exact-sized Flat columns, a fraction of the
// tree's bytes, and Unflatten returns a decoded graph resting on the
// columns it checked; either keeps its path count beside them. Paths,
// Flatten, Similarity and Validate read the columns, and so does every
// reader that walks Flatten's result (the cell renderer, FlatExceptions).
// Every other reader needs nodes, and the first of them thaws a tree from
// the columns, once: Root, NodeAt, Exceptions, String, DOT, the analyses,
// Contrast, Clone and Fold, and Fork, whose fork shares the thawed nodes. The thawed graph
// drops its columns — a reader still walking them keeps them until it is
// done — and is a tree from then on, as if it had never rested. Writers —
// AddAggregated, Merge, MineExceptions, ClearExceptions — first wake the
// graph: it becomes a tree again, the one a reader thawed or one thawed now.

// rest is a resting graph's columns and the tree thawed from them.
type rest struct {
	// cols are the columns, until the graph thaws; Columns reads them
	// beside a thaw.
	cols atomic.Pointer[Flat]
	// once guards the thaw, which sets root and exceptions.
	once       sync.Once
	root       *Node
	exceptions []Exception
}

// Rest puts a tree graph to rest: its tree and exceptions are replaced by
// columns. A graph already at rest is left as it is. Like every writer, it
// must not run concurrently with the graph's readers.
func (g *Graph) Rest() {
	if g.rest != nil {
		return
	}
	cols := flatten(g.root, g.paths, g.exceptions)
	g.rest = restOn(&cols)
	g.root, g.exceptions = nil, nil
}

// restOn returns the resting state of a graph whose columns are cols:
// flattened from a tree, or passed by Check, since a thaw cannot fail.
func restOn(cols *Flat) *rest {
	r := &rest{}
	r.cols.Store(cols)
	return r
}

// Columns returns the columns of a graph at rest, or nil for a tree or a
// thawed graph. They are the graph's own and do not change: callers read
// them and must not modify them.
func (g *Graph) Columns() *Flat {
	if g.rest == nil {
		return nil
	}
	return g.rest.cols.Load()
}

// tree returns the graph's tree and exceptions: a resting graph's are
// thawed by the first caller, whom concurrent first callers wait for, and
// shared by every later one. Thawed nodes carry the graph's owner tag, so a
// write after wake changes them in place, as it would a built tree's.
func (g *Graph) tree() (*Node, []Exception) {
	r := g.rest
	if r == nil {
		return g.root, g.exceptions
	}
	r.once.Do(func() {
		var err error
		if r.root, r.exceptions, err = r.cols.Load().tree(g.owner); err != nil {
			// Resting columns were flattened from a tree or passed Check;
			// they always thaw.
			panic("flowgraph: resting columns do not thaw: " + err.Error())
		}
		r.cols.Store(nil)
	})
	return r.root, r.exceptions
}

// wake makes a resting graph a tree again before a write.
func (g *Graph) wake() {
	if g.rest != nil {
		g.root, g.exceptions = g.tree()
		g.rest = nil
	}
}
