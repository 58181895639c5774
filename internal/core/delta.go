package core

// Delta-maintenance support (see internal/incr and DESIGN.md §9): cube
// generations that share structure, the one accessor through which a
// generation obtains a cell it may write, and the exported cell/tid
// primitives the incr package drives the update with.
//
// The ownership rule. Every cuboid, cell, flowgraph node and ledger part
// carries the tag of the generation that may write it. Build and the
// snapshot decoders produce generation 0 and tag everything 0 (a lazily
// opened cube is generation 1 over a mapped generation 0); Fork returns a
// generation with the next tag that shares all of it, so whatever a
// generation holds is frozen the moment the next one is forked from it. A
// writer reaches a cell only through OwnedCell, which copies the cuboid's
// cell map — the written cells over a mapped base, every cell otherwise —
// and the cell on first touch and forks the cell's flowgraph;
// flowgraph.Graph.AddPath then copies the nodes along the path it adds and
// nothing else. The symbol table is handed down the same way, and a writer
// reaches it only through OwnedSymbols. Dropping a fork is the whole
// rollback.
//
// This file is on the immutcube allowlist: it holds that accessor and the
// build-phase machinery (tid recovery, the record router's cache) that runs
// on cubes no reader shares yet.

import (
	"flowcube/internal/hierarchy"
	"flowcube/internal/pathdb"
	"flowcube/internal/transact"
)

// Fork returns the cube's next generation: a cube that shares every
// cuboid, mapped base, cell, flowgraph node, ledger node and cached
// exception condition with the receiver by pointer, and writes
// copy-on-write through OwnedCell. The receiver is not touched by anything
// done to the fork — readers keep using it, and a fork that is dropped
// leaves no trace — so the cost is the cuboid and ledger-level tables, which
// do not grow with the cells or their flowgraphs. The symbol table is
// shared too, until OwnedSymbols copies it.
//
// Tags run out after 2³²−1 forks along one lineage; a cube from Build or
// Load starts a new one.
func (c *Cube) Fork() *Cube {
	f := &Cube{
		Schema:        c.Schema,
		Config:        c.Config,
		Symbols:       c.Symbols,
		Mining:        c.Mining,
		Cuboids:       make(map[string]*Cuboid, len(c.Cuboids)),
		minCount:      c.minCount,
		gen:           c.gen + 1,
		ledger:        c.ledger.fork(c.gen + 1),
		haveTIDs:      c.haveTIDs,
		sharedSymbols: true,
		levelCuboids:  c.levelCuboids,
		routes:        c.routes,
		lazy:          c.lazy,
	}
	for key, cb := range c.Cuboids {
		f.Cuboids[key] = cb
	}
	f.order.Store(c.order.Load())
	return f
}

// ownedCuboid returns the spec's cuboid with a cell map this generation
// may write, copying the map (not the cells, nor the base under it) on
// first touch; nil when the cuboid is not materialized.
func (c *Cube) ownedCuboid(spec CuboidSpec) *Cuboid {
	cb := c.Cuboid(spec)
	if cb == nil || cb.owner == c.gen {
		return cb
	}
	own := &Cuboid{Spec: cb.Spec, Cells: make(map[CellID]*Cell, len(cb.Cells)+1), owner: c.gen, base: cb.base}
	for id, cell := range cb.Cells {
		own.Cells[id] = cell
	}
	c.Cuboids[spec.Key()] = own
	return own
}

// remove deletes a cell: from the map, or over a base by a nil entry that
// hides the base cell.
func (cb *Cuboid) remove(id CellID) {
	if cb.base == nil {
		delete(cb.Cells, id)
		return
	}
	cb.Cells[id] = nil
}

// OwnedCell returns the spec's cell of these values as this generation may
// write it, or nil when there is none. It is the only way a writer reaches
// a cell: the first touch in a generation copies the cuboid's cell map,
// then the cell — decoded first when only the mapped base holds it — its
// flowgraph forked (nodes shared until a path is added through them), its
// tids clamped so an append reallocates instead of growing into the older
// generation's spare capacity — and later touches return the same copy.
func (c *Cube) OwnedCell(spec CuboidSpec, values []hierarchy.NodeID) *Cell {
	cb := c.ownedCuboid(spec)
	if cb == nil {
		return nil
	}
	cell, _ := cb.get(values)
	if cell == nil || cell.owner == c.gen {
		return cell
	}
	own := *cell
	own.owner = c.gen
	own.tids = cell.tids[:len(cell.tids):len(cell.tids)]
	if cell.Graph != nil {
		own.Graph = cell.Graph.Fork(c.gen)
	}
	cb.Cells[MakeCellID(values)] = &own
	c.cellsCopied++
	return &own
}

// OwnedSymbols returns the cube's symbol table as this generation may write
// it (interning items is a write), copying the table on the first call after
// Fork, FilterCells or Merge handed it down shared.
func (c *Cube) OwnedSymbols() *transact.Symbols {
	if c.sharedSymbols {
		c.Symbols, c.sharedSymbols = c.Symbols.Clone(), false
	}
	return c.Symbols
}

// CellsCopied reports how many cells this generation has copied from the
// ones before it (0 for a cube that was never forked).
func (c *Cube) CellsCopied() int { return c.cellsCopied }

// ownAllCells makes every materialized cell this generation's own, for the
// mutators that rewrite the whole cube: afterwards Cells holds every cell.
func (c *Cube) ownAllCells() {
	for _, cb := range c.Cuboids {
		var cells [][]hierarchy.NodeID
		_ = cb.each(func(e *dirEntry, _ *Cell) error {
			cells = append(cells, e.values)
			return nil
		})
		for _, values := range cells {
			c.OwnedCell(cb.Spec, values)
		}
	}
}

// Ledger returns the cube's sub-δ ledger, or nil when the cube was built
// without Config.DeltaLedger. It belongs to this generation: writes through
// it never reach the generation the cube was forked from.
func (c *Cube) Ledger() *Ledger { return c.ledger }

// LevelCuboids groups the materialized cuboids that share one item level
// (they hold the same cells, one flowgraph per path level).
type LevelCuboids struct {
	Item ItemLevel
	// Specs are the cuboids' specs in ascending key order.
	Specs []CuboidSpec
}

// LevelCuboids returns the materialized cuboids grouped by item level, in
// ascending cuboid-key order (cuboids of one item level share the key
// prefix "item@", so they sort next to each other). The grouping depends
// only on which cuboids are materialized, so it is computed once and handed
// down to forks; callers must not modify it.
func (c *Cube) LevelCuboids() []LevelCuboids {
	if c.levelCuboids == nil {
		var out []LevelCuboids
		for _, spec := range c.MaterializedSpecs() {
			if n := len(out); n == 0 || out[n-1].Item.Key() != spec.Item.Key() {
				out = append(out, LevelCuboids{Item: spec.Item})
			}
			last := &out[len(out)-1]
			last.Specs = append(last.Specs, spec)
		}
		c.levelCuboids = out
	}
	return c.levelCuboids
}

// RecordRouter returns a router over the cube's item levels, numbered as
// LevelCuboids numbers them. Its fixed part is computed once and handed
// down to forks like LevelCuboids.
func (c *Cube) RecordRouter() *RecordRouter {
	if c.routes == nil {
		c.routes = newRoutes(c.Schema, c.LevelCuboids())
	}
	m := len(c.Schema.Dims)
	r := &RecordRouter{routes: c.routes, anc: make([][]hierarchy.NodeID, m), values: make([]hierarchy.NodeID, m)}
	for d, levels := range r.dimLevels {
		r.anc[d] = make([]hierarchy.NodeID, len(levels))
	}
	return r
}

// TIDs returns the record ids (indices into the build database) assigned to
// the cell, in ascending order. The slice is shared with the cell of the
// same values in the item level's other cuboids — callers must treat it as
// read-only. It is nil for cubes loaded from a snapshot; RebuildTIDs
// recovers it.
func (cell *Cell) TIDs() []int32 { return cell.tids }

// SetTIDs replaces the record-id list of a cell obtained from OwnedCell or
// AdmitCell.
func (cell *Cell) SetTIDs(tids []int32) { cell.tids = tids }

// HaveTIDs reports whether the cube's cells carry their record-id lists:
// true after RebuildTIDs or a Build with Config.MineExceptions (only
// exception mining reads them), false after any other Build and for a cube
// decoded from a snapshot, and inherited by forks.
func (c *Cube) HaveTIDs() bool { return c.haveTIDs }

// RebuildTIDs re-derives every materialized cell's record-id list from the
// database the cube was built over (or an equal copy), using the same
// record walk as Build. Cubes loaded from snapshots do not carry tids;
// delta maintenance needs them once.
func (c *Cube) RebuildTIDs(db *pathdb.DB) {
	c.ownAllCells()
	c.assignCells(db, false)
}

// AdmitCell registers a newly-frequent cell (found by delta maintenance) in
// the spec's cuboid and returns it for the caller to fill in, or nil when
// the cuboid is not materialized or already holds the cell. Callers admit a
// combination into every cuboid of its item level (LevelCuboids), as the
// build phase does for cells found by mining.
func (c *Cube) AdmitCell(spec CuboidSpec, values []hierarchy.NodeID, count int64) *Cell {
	cb := c.ownedCuboid(spec)
	if cb == nil {
		return nil
	}
	if e, cell, _ := cb.find(values); e != nil || cell != nil {
		return nil
	}
	cell := &Cell{
		Values:     append([]hierarchy.NodeID(nil), values...),
		Count:      count,
		Similarity: SimilarityUnknown,
		owner:      c.gen,
	}
	cb.Cells[MakeCellID(values)] = cell
	return cell
}
