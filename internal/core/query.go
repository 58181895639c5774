package core

import (
	"sync/atomic"

	"flowcube/internal/flowgraph"
	"flowcube/internal/hierarchy"
)

// Redundancy (paper §4.3, Definition 4.4) and querying with roll-up
// inference: a cell whose flowgraph is similar (ϕ > τ) to every parent cell
// in the item lattice — at the same path level — adds no information; a
// non-redundant flowcube drops it and answers queries from the parent.

// CellRef names a cell by cuboid spec and per-dimension values without
// requiring it to be materialized.
type CellRef struct {
	Spec   CuboidSpec
	Values []hierarchy.NodeID
}

// CellRefKey is a lattice cell as a map key: its cuboid's key and CellID.
type CellRefKey struct {
	Spec string
	ID   CellID
}

// parentRefs enumerates the item-lattice parents of a cell: its RollUpRef
// along every dimension at a non-'*' level. ApplyDelta uses it to find the
// redundancy frontier of a touched cell (DESIGN.md §9).
func (c *Cube) parentRefs(spec CuboidSpec, values []hierarchy.NodeID) []CellRef {
	var out []CellRef
	for d, l := range spec.Item {
		if l != 0 {
			pSpec, pValues, _ := c.RollUpRef(spec, values, d)
			out = append(out, CellRef{Spec: pSpec, Values: pValues})
		}
	}
	return out
}

// MarkRedundancy walks every materialized cell and sets Cell.Redundant when
// the cell's flowgraph is τ-similar to all of its materialized item-lattice
// parents (and at least one parent exists). It records the weakest parent
// similarity in Cell.Similarity and returns the number of redundant cells.
// Cells with no materialized parents (the apex, or partially materialized
// lattices) are left at SimilarityUnknown rather than a fabricated ϕ = 1,
// which would read as "maximally redundant" in summaries and persisted
// output.
//
// Cells are marked concurrently when Config.Workers > 1. Every cell is made
// this generation's own first, so that a job only reads the cube's maps; it
// then writes its own cell's Similarity and Redundant and reads nothing of
// its parents but their graphs.
func (c *Cube) MarkRedundancy(tau float64) int {
	c.ownAllCells()
	type job struct {
		spec   CuboidSpec
		values []hierarchy.NodeID
	}
	var jobs []job
	for _, cb := range c.sortedCuboids() {
		for _, cell := range cb.SortedCells() {
			jobs = append(jobs, job{cb.Spec, cell.Values})
		}
	}
	var redundant atomic.Int64
	c.forEach(len(jobs), func(i int) {
		if c.markCellRedundancy(jobs[i].spec, jobs[i].values, tau) {
			redundant.Add(1)
		}
	})
	return int(redundant.Load())
}

// markCellRedundancy recomputes one cell's redundancy marking against its
// currently materialized item-lattice parents and reports whether the cell
// is redundant (false too when the cell is not materialized). It is the
// per-cell body of MarkRedundancy; ApplyDelta calls it for touched
// cells and their frontier only. The marking is written to this
// generation's copy of the cell.
func (c *Cube) markCellRedundancy(spec CuboidSpec, values []hierarchy.NodeID, tau float64) bool {
	cell := c.ownedCell(spec, values)
	if cell == nil || cell.Graph == nil {
		return false
	}
	compared := 0
	minSim := 1.0
	for _, p := range c.parentRefs(spec, cell.Values) {
		pc, ok := c.Cell(p.Spec, p.Values)
		if !ok || pc.Graph == nil {
			continue
		}
		compared++
		if sim := flowgraph.Similarity(cell.Graph, pc.Graph); sim < minSim {
			minSim = sim
		}
	}
	if compared == 0 {
		cell.Similarity = SimilarityUnknown
		cell.Redundant = false
		return false
	}
	cell.Similarity = minSim
	cell.Redundant = minSim > tau
	return cell.Redundant
}

// Compress removes redundant cells from the cube, yielding the paper's
// non-redundant flowcube. It returns the number of cells removed.
// MarkRedundancy (or Build with Tau > 0) must have run first. A mapped
// base is read from its directory: its redundant cells are hidden, not
// decoded. The cube is marked compressed, and ApplyDelta refuses it.
func (c *Cube) Compress() int {
	c.compressed = true
	n := 0
	for _, cb := range c.Cuboids {
		cb = c.ownedCuboid(cb.Spec)
		var drop []CellID
		_ = cb.each(func(e *dirEntry, _ *Cell) error {
			if e.redundant {
				drop = append(drop, MakeCellID(e.values))
			}
			return nil
		})
		for _, id := range drop {
			cb.remove(id)
		}
		n += len(drop)
	}
	return n
}

// DropCuboid removes one materialized cuboid from the cube and returns it,
// or nil when the cuboid is absent: the cube then answers that cuboid's
// cells the way a cube built without it (Config.Cuboids) does, by
// reconstruction or ancestor fallback. Like every mutator it must not run
// concurrently with readers.
func (c *Cube) DropCuboid(spec CuboidSpec) *Cuboid {
	key := spec.Key()
	cb := c.Cuboids[key]
	if cb == nil {
		return nil
	}
	delete(c.Cuboids, key)
	c.groups, c.routes = nil, nil
	c.order.Store(nil)
	return cb
}
