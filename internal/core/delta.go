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
// nothing else. Dropping a fork is the whole rollback.
//
// This file is on the immutcube allowlist: it holds that accessor and the
// build-phase machinery (the sub-δ ledger scan, tid recovery) that runs on
// cubes no reader shares yet.

import (
	"flowcube/internal/flowgraph"
	"flowcube/internal/hierarchy"
	"flowcube/internal/pathdb"
	"flowcube/internal/transact"
)

// Fork returns the cube's next generation: a cube that shares every
// cuboid, mapped base, cell, flowgraph node, ledger node and cached
// exception condition with the receiver by pointer, and writes
// copy-on-write through OwnedCell. The receiver is not touched by anything
// done to the fork — readers keep using it, and a fork that is dropped
// leaves no trace — so the cost is the cuboid and ledger-level tables plus
// the symbol table (encoding a batch interns items), none of which grows
// with the cells or their flowgraphs.
//
// Tags run out after 2³²−1 forks along one lineage; a cube from Build or
// Load starts a new one.
func (c *Cube) Fork() *Cube {
	f := &Cube{
		Schema:       c.Schema,
		Config:       c.Config,
		Symbols:      c.Symbols.Clone(),
		Mining:       c.Mining,
		Cuboids:      make(map[string]*Cuboid, len(c.Cuboids)),
		minCount:     c.minCount,
		gen:          c.gen + 1,
		ledger:       c.ledger.fork(c.gen + 1),
		haveTIDs:     c.haveTIDs,
		levelCuboids: c.levelCuboids,
		lazy:         c.lazy,
	}
	for key, cb := range c.Cuboids {
		f.Cuboids[key] = cb
	}
	f.order.Store(c.order.Load())
	return f
}

// ownedCuboid returns the cuboid under specKey with a cell map this
// generation may write, copying the map (not the cells, nor the base under
// it) on first touch; nil when the cuboid is not materialized.
func (c *Cube) ownedCuboid(specKey string) *Cuboid {
	cb := c.Cuboids[specKey]
	if cb == nil || cb.owner == c.gen {
		return cb
	}
	own := &Cuboid{Spec: cb.Spec, Cells: make(map[string]*Cell, len(cb.Cells)+1), owner: c.gen, base: cb.base}
	for ck, cell := range cb.Cells {
		own.Cells[ck] = cell
	}
	c.Cuboids[specKey] = own
	return own
}

// remove deletes the cell under key: from the map, or over a base by a nil
// entry that hides the base cell.
func (cb *Cuboid) remove(key string) {
	if cb.base == nil {
		delete(cb.Cells, key)
		return
	}
	cb.Cells[key] = nil
}

// OwnedCell returns the cell stored under cellKey in the cuboid under
// specKey as this generation may write it, or nil when there is none. It is
// the only way a writer reaches a cell: the first touch in a generation
// copies the cuboid's cell map, then the cell — decoded first when only the
// mapped base holds it — its flowgraph forked (nodes
// shared until a path is added through them), its tids clamped so an
// append reallocates instead of growing into the older generation's spare
// capacity — and later touches return the same copy.
func (c *Cube) OwnedCell(specKey, cellKey string) *Cell {
	cb := c.ownedCuboid(specKey)
	if cb == nil {
		return nil
	}
	cell, _ := cb.get(cellKey)
	if cell == nil || cell.owner == c.gen {
		return cell
	}
	own := *cell
	own.owner = c.gen
	own.tids = cell.tids[:len(cell.tids):len(cell.tids)]
	if cell.Graph != nil {
		own.Graph = cell.Graph.Fork(c.gen)
	}
	cb.Cells[cellKey] = &own
	c.cellsCopied++
	return &own
}

// CellsCopied reports how many cells this generation has copied from the
// ones before it (0 for a cube that was never forked).
func (c *Cube) CellsCopied() int { return c.cellsCopied }

// ownAllCells makes every materialized cell this generation's own, for the
// mutators that rewrite the whole cube: afterwards Cells holds every cell.
func (c *Cube) ownAllCells() {
	for key, cb := range c.Cuboids {
		var keys []string
		_ = cb.each(func(e *dirEntry, _ *Cell) error {
			keys = append(keys, e.key)
			return nil
		})
		for _, ck := range keys {
			c.OwnedCell(key, ck)
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

// buildLedger populates the sub-δ ledger from the base database: one scan
// per materialized item level (levels are independent, so they spread
// across Config.Workers), counting every combination and keeping the ones
// below the iceberg threshold — the rest are materialized cells and carry
// their counts themselves.
func (c *Cube) buildLedger(db *pathdb.DB) {
	levels := c.LevelCuboids()
	built := make([]*ledgerLevel, len(levels))
	c.forEach(len(levels), func(i int) {
		il := levels[i].Item
		counts := make(map[string]*ledgerEntry)
		values := make([]hierarchy.NodeID, len(il))
		for r := range db.Records {
			ck := cellKey(il.ValuesOf(c.Schema, db.Records[r].Dims, values))
			e := counts[ck]
			if e == nil {
				e = &ledgerEntry{key: ck, values: append([]hierarchy.NodeID(nil), values...)}
				counts[ck] = e
			}
			e.count++
		}
		lv := &ledgerLevel{item: append(ItemLevel(nil), il...), owner: c.gen}
		for _, e := range counts {
			if e.count < c.minCount {
				lv.put(e)
			}
		}
		built[i] = lv
	})
	c.ledger = &Ledger{levels: make(map[string]*ledgerLevel, len(built)), owner: c.gen}
	for _, lv := range built {
		c.ledger.levels[lv.item.Key()] = lv
	}
}

// CellKey returns the canonical identity string of per-dimension values —
// the key SortedCells and the cuboid cell maps are ordered by.
func CellKey(values []hierarchy.NodeID) string { return cellKey(values) }

// TIDs returns the record ids (indices into the build database) assigned to
// the cell, in ascending order. The slice is the cell's own backing store —
// callers must treat it as read-only. It is nil for cubes loaded from a
// snapshot; RebuildTIDs recovers it.
func (cell *Cell) TIDs() []int32 { return cell.tids }

// SetTIDs replaces the record-id list of a cell obtained from OwnedCell or
// AdmitCell.
func (cell *Cell) SetTIDs(tids []int32) { cell.tids = tids }

// HaveTIDs reports whether the cube's cells carry their record-id lists:
// true after Build or RebuildTIDs, false for a cube decoded from a
// snapshot, and inherited by forks.
func (c *Cube) HaveTIDs() bool { return c.haveTIDs }

// RebuildTIDs re-derives every materialized cell's record-id list from the
// database the cube was built over (or an equal copy), using the same
// packed-key assignment scan as Build. Cubes loaded from snapshots do not
// carry tids; delta maintenance needs them once.
func (c *Cube) RebuildTIDs(db *pathdb.DB) {
	c.ownAllCells()
	c.assignCells(db, c.populateTargets())
}

// AdmitCell registers a newly-frequent cell (found by delta maintenance) in
// the cuboid under specKey and returns it for the caller to fill in, or nil
// when the cuboid is not materialized or already holds the cell. Callers
// admit a combination into every cuboid of its item level (LevelCuboids),
// as the build phase does for cells found by mining.
func (c *Cube) AdmitCell(specKey string, values []hierarchy.NodeID, count int64) *Cell {
	cb := c.ownedCuboid(specKey)
	if cb == nil {
		return nil
	}
	key := cellKey(values)
	if e, cell, _ := cb.find(key); e != nil || cell != nil {
		return nil
	}
	cell := &Cell{
		Values:     append([]hierarchy.NodeID(nil), values...),
		Count:      count,
		Similarity: SimilarityUnknown,
		owner:      c.gen,
	}
	cb.Cells[key] = cell
	return cell
}

// StagePins converts an all-stage itemset into exception-condition pins,
// applying the build phase's filters: every stage must sit at the same path
// abstraction level and at least one pin must carry a concrete duration.
// It returns the shared path level and ok=false when a filter rejects the
// set.
func StagePins(syms *transact.Symbols, stages []transact.Item) (int, []flowgraph.StagePin, bool) {
	return stagePins(syms, stages)
}
