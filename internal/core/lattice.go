package core

// Lattice navigation for the OLAP engine: enumerating materialized cuboids,
// locating the materialized descendants a non-materialized cell can be
// folded from, and moving cell values between item levels. Everything here
// is a pure read and safe under concurrent readers.

import (
	"cmp"
	"slices"
	"strings"

	"flowcube/internal/hierarchy"
)

// MaterializedSpecs returns the spec of every materialized cuboid in
// ascending key order.
func (c *Cube) MaterializedSpecs() []CuboidSpec {
	cuboids := c.sortedCuboids()
	out := make([]CuboidSpec, len(cuboids))
	for i, cb := range cuboids {
		out[i] = cb.Spec
	}
	return out
}

// levelRank returns the position of item level l within dimension d's
// materialized level ladder ({'*'} ∪ plan levels): 0 for '*', 1 for the
// first materialized level, and so on. Unknown levels rank below '*' so a
// malformed spec never counts as a descendant.
func (c *Cube) levelRank(d, l int) int {
	if l == 0 {
		return 0
	}
	for i, ml := range c.Symbols.DimLevels()[d] {
		if ml == l {
			return i + 1
		}
	}
	return -1
}

// descendantSpecs picks from specs (a source's materialized cuboids) the
// ones that refine spec: same path level, item level strictly dominated by
// spec's (finer in at least one dimension, coarser in none). They are
// ordered nearest-first — by the total ladder distance from spec, ties
// broken by key — so fold searches prefer the cheapest certificate (fewest
// cells to fold). It is pure schema navigation, so a metadata-only cube
// (core.LoadMeta) ranks a remote source's cuboids with it too.
func (c *Cube) descendantSpecs(specs []CuboidSpec, spec CuboidSpec) []CuboidSpec {
	type cand struct {
		spec CuboidSpec
		dist int
		key  string
	}
	cands := make([]cand, 0, len(specs))
	for _, ds := range specs {
		if dist, ok := c.latticeDist(spec, ds); ok {
			cands = append(cands, cand{ds, dist, ds.Key()})
		}
	}
	slices.SortFunc(cands, func(a, b cand) int {
		return cmp.Or(cmp.Compare(a.dist, b.dist), strings.Compare(a.key, b.key))
	})
	out := make([]CuboidSpec, len(cands))
	for i, cd := range cands {
		out[i] = cd.spec
	}
	return out
}

// latticeDist reports whether ds refines spec and the total ladder distance
// between them.
func (c *Cube) latticeDist(spec, ds CuboidSpec) (int, bool) {
	if ds.PathLevel != spec.PathLevel {
		return 0, false
	}
	if !spec.Item.Dominates(ds.Item) || slices.Equal(ds.Item, spec.Item) {
		return 0, false
	}
	dist := 0
	for d, l := range ds.Item {
		r, sr := c.levelRank(d, l), c.levelRank(d, spec.Item[d])
		if r < 0 || sr < 0 {
			return 0, false
		}
		dist += r - sr
	}
	return dist, true
}

// GeneralizeValues maps a cell's values at item level from to the coarser
// item level to (which must dominate from). Dimensions aggregated to '*'
// become hierarchy.Root; others climb the hierarchy with AncestorAt.
func (c *Cube) GeneralizeValues(from, to ItemLevel, values []hierarchy.NodeID) []hierarchy.NodeID {
	return c.generalize(make([]hierarchy.NodeID, len(values)), from, to, values)
}

// generalize is GeneralizeValues into out, which it returns.
func (c *Cube) generalize(out []hierarchy.NodeID, from, to ItemLevel, values []hierarchy.NodeID) []hierarchy.NodeID {
	for d, v := range values {
		switch {
		case to[d] == 0:
			out[d] = hierarchy.Root
		case to[d] == from[d]:
			out[d] = v
		default:
			out[d] = c.Schema.Dims[d].AncestorAt(v, to[d])
		}
	}
	return out
}

// Census looks up the exact path count of a cell from any materialized
// cuboid sharing the item level (counts are independent of path level: a
// cell's count is the size of its path set, however the paths are
// aggregated). It is the certificate anchor for computed cells: a fold of
// descendants is exact iff the folded counts sum to the census count. A
// mapped base answers from the twin's directory and decodes no graph.
func (c *Cube) Census(spec CuboidSpec, values []hierarchy.NodeID) (int64, bool) {
	for pl := range c.Symbols.PathLevels() {
		cb := c.Cuboid(CuboidSpec{Item: spec.Item, PathLevel: pl})
		if cb == nil || pl == spec.PathLevel {
			continue
		}
		switch e, cell, _ := cb.find(values); {
		case cell != nil:
			return cell.Count, true
		case e != nil:
			return e.count, true
		}
	}
	return 0, false
}

// FoldSources returns the cells of the materialized cuboid ds that
// generalize to the cell (spec, values), in CompareCells order: the
// candidates a fold of ds into that cell would merge. Selection runs on the
// value tuples, so a mapped base decodes only the selected cells; one that
// fails to decode is left out (and recorded for LazyErr), and the fold
// certificate then sums short and refuses.
func (c *Cube) FoldSources(ds, spec CuboidSpec, values []hierarchy.NodeID) []*Cell {
	cb := c.Cuboid(ds)
	if cb == nil {
		return nil
	}
	up := make([]hierarchy.NodeID, len(values))
	var out []*Cell
	_ = cb.each(func(e *dirEntry, cell *Cell) error {
		if !slices.Equal(c.generalize(up, ds.Item, spec.Item, e.values), values) {
			return nil
		}
		if cell, err := cb.decoded(e, cell); err == nil {
			out = append(out, cell)
		}
		return nil
	})
	return out
}

// FoldSet is one materialized descendant cuboid's fold sources for a cell.
type FoldSet struct {
	Spec  CuboidSpec
	Cells []*Cell
}

// Partial is everything this cube knows about one cell that a planner
// running elsewhere may ask a CellSource: what a shard ships to the cluster
// router (GET /v2/partial). Census, Lattice and Folds are filled only when
// the cell's cuboid is not materialized — the only case the planner
// reconstructs. Census is -1 when no local cuboid shares the item level
// (only the shard owning the cell's values has it); Folds lists, nearest
// first, each materialized descendant cuboid holding local fold sources.
type Partial struct {
	Self         *Cell
	Materialized bool
	Census       int64
	Lattice      []CuboidSpec
	Folds        []FoldSet
}

// Partial collects the cube's Partial for one cell.
func (c *Cube) Partial(spec CuboidSpec, values []hierarchy.NodeID) Partial {
	p := Partial{Census: -1}
	p.Self, p.Materialized = c.Lookup(spec, values)
	if p.Materialized {
		return p
	}
	if n, ok := c.Census(spec, values); ok {
		p.Census = n
	}
	p.Lattice = c.MaterializedSpecs()
	for _, ds := range c.descendantSpecs(p.Lattice, spec) {
		if cells := c.FoldSources(ds, spec, values); len(cells) > 0 {
			p.Folds = append(p.Folds, FoldSet{Spec: ds, Cells: cells})
		}
	}
	return p
}

// cuboidCellValues lists a materialized cuboid's value tuples in
// CompareCells order; false when the cuboid is not materialized. The outer
// slice is the caller's, the tuples are the cells' own and read-only. A
// mapped base answers from its directory without decoding a graph.
func (c *Cube) cuboidCellValues(spec CuboidSpec) ([][]hierarchy.NodeID, bool) {
	cb := c.Cuboid(spec)
	if cb == nil {
		return nil, false
	}
	out := make([][]hierarchy.NodeID, 0, cb.len())
	err := cb.each(func(e *dirEntry, _ *Cell) error {
		out = append(out, e.values)
		return nil
	})
	return out, err == nil
}

// enumerateCellValues lists the value tuples of spec's cells whether or not
// the cuboid is materialized, in CompareCells order. For a dropped
// cuboid the tuples come from a materialized cuboid at the same item level
// (the census twin — cell sets at one item level agree across path levels
// of an uncompressed cube), falling back to the distinct generalizations of
// every materialized descendant's cells. The bool reports whether any
// source was found. The returned outer slice is the caller's to reorder or
// filter in place; the tuples themselves are shared and read-only.
func (c *Cube) enumerateCellValues(spec CuboidSpec) ([][]hierarchy.NodeID, bool) {
	if out, ok := c.cuboidCellValues(spec); ok {
		return out, true
	}
	specs := c.MaterializedSpecs()
	ilKey := spec.Item.Key()
	for _, ms := range specs {
		if ms.Item.Key() == ilKey && ms.Key() != spec.Key() {
			return c.cuboidCellValues(ms)
		}
	}
	seen := map[CellID]bool{}
	var out [][]hierarchy.NodeID
	found := false
	for _, ds := range c.descendantSpecs(specs, spec) {
		tuples, ok := c.cuboidCellValues(ds)
		if !ok {
			continue
		}
		found = true
		for _, v := range tuples {
			up := c.GeneralizeValues(ds.Item, spec.Item, v)
			if id := MakeCellID(up); !seen[id] {
				seen[id] = true
				out = append(out, up)
			}
		}
	}
	if !found {
		return nil, false
	}
	slices.SortFunc(out, CompareCells)
	return out, true
}
