package core

import (
	"slices"

	"flowcube/internal/hierarchy"
	"flowcube/internal/pathdb"
)

// recordRouter maps records to cells. The item abstraction level alone fixes
// a record's cell (§4: the path level only shapes the cell's flowgraph), so
// a record falls in exactly one cell per materialized item level. Build's
// populate and sub-δ ledger, rebuildTIDs and ApplyDelta all map records
// through it: route takes a record, then cell gives its cell at any item
// level. A router holds scratch space: one goroutine uses it.
type recordRouter struct {
	*routes
	anc    [][]hierarchy.NodeID
	values []hierarchy.NodeID
	id     []byte
}

// routes is a router's fixed part, cached per lineage beside levelGroups.
type routes struct {
	schema *pathdb.Schema
	// dimLevels lists, per dimension, the distinct non-'*' levels the item
	// levels use; a router's anc rows are indexed the same way.
	dimLevels [][]int
	// pick gives, per item level and dimension, the anc column holding the
	// level's value, or -1 for a '*' dimension.
	pick [][]int
}

func newRoutes(schema *pathdb.Schema, levels []levelGroup) *routes {
	rt := &routes{schema: schema, dimLevels: make([][]int, len(schema.Dims))}
	for _, lv := range levels {
		for d, l := range lv.Item {
			if l > 0 && !slices.Contains(rt.dimLevels[d], l) {
				rt.dimLevels[d] = append(rt.dimLevels[d], l)
			}
		}
	}
	for _, lv := range levels {
		pick := make([]int, len(lv.Item))
		for d, l := range lv.Item {
			pick[d] = slices.Index(rt.dimLevels[d], l) // -1 for '*', never listed
		}
		rt.pick = append(rt.pick, pick)
	}
	return rt
}

// route takes the record with these dimension values: it resolves each
// (dimension, level) ancestor the item levels need, once, for cell.
func (r *recordRouter) route(dims []hierarchy.NodeID) {
	for d, levels := range r.dimLevels {
		h := r.schema.Dims[d]
		for i, l := range levels {
			r.anc[d][i] = h.AncestorAt(dims[d], l)
		}
	}
}

// cell returns the routed record's cell at an item level: id is its CellID's
// bytes (m[CellID(id)] probes without copying) and values its per-dimension
// values. Both are the router's scratch, overwritten by the next call; a
// caller that keeps them copies them.
func (r *recordRouter) cell(level int) (id []byte, values []hierarchy.NodeID) {
	for d, i := range r.pick[level] {
		r.values[d] = hierarchy.Root
		if i >= 0 {
			r.values[d] = r.anc[d][i]
		}
	}
	r.id = appendCellID(r.id[:0], r.values)
	return r.id, r.values
}
