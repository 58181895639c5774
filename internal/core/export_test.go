package core

import (
	"fmt"
	"io"
	"slices"

	"flowcube/internal/flowgraph"
	"flowcube/internal/hierarchy"
	"flowcube/internal/pathdb"
)

// NewCondSet builds a condition set as Build's cache seeding does.
var NewCondSet = newCondSet

// Has is condSet.has.
func (s *condSet) Has(pins []flowgraph.StagePin) bool { return s.has(pins) }

// Ledger returns the cube's sub-δ ledger, nil when it carries none.
func (c *Cube) Ledger() *deltaLedger { return c.ledger }

// LedgerDiff describes the first difference between the sub-δ ledger the
// cube maintains and one derived afresh from db over the same cells, and is
// empty when they agree, the cube has derived none yet, or its ledger does
// not count db (a sibling fork advanced it, or a dropped fold left it
// claimed: the cube's next append derives its own). oracle.Run checks it
// after every step of a chain.
func (c *Cube) LedgerDiff(db *pathdb.DB) string {
	if c.ledger == nil || c.ledger.stamp.Load() != int64(db.Len()) {
		return ""
	}
	return LedgerDiff(c.deriveLedger(db), c.ledger)
}

// LedgerDiff describes the first combination, in item-level key and cell
// order, whose count in got differs from want's, or is empty. An entry
// missing from a ledger counts 0; empty item levels do not count.
func LedgerDiff(want, got *deltaLedger) string {
	w, g := want.levels, got.levels
	var keys []string
	for key := range w {
		keys = append(keys, key)
	}
	for key := range g {
		if _, ok := w[key]; !ok {
			keys = append(keys, key)
		}
	}
	slices.Sort(keys)
	for _, key := range keys {
		var ids []CellID
		for id := range w[key] {
			ids = append(ids, id)
		}
		for id := range g[key] {
			if _, ok := w[key][id]; !ok {
				ids = append(ids, id)
			}
		}
		slices.SortFunc(ids, func(a, b CellID) int { return CompareCells(a.values(), b.values()) })
		for _, id := range ids {
			if w[key][id] != g[key][id] {
				return fmt.Sprintf("level %s, combination %s: count %d, want %d", key, formatCell(id.values()), g[key][id], w[key][id])
			}
		}
	}
	return ""
}

// TIDs returns the cell's record ids, nil when the cube keeps none.
func (cell *Cell) TIDs() []int32 { return cell.tids }

// CachedConds returns the cell's cached condition set, with ok=false on a
// cold cache.
func (cell *Cell) CachedConds() (*condSet, bool) { return cell.conds, cell.conds != nil }

// HaveTIDs reports whether the cube's cells carry their record-id lists.
func (c *Cube) HaveTIDs() bool { return c.haveTIDs }

// RebuildTIDs is rebuildTIDs.
func (c *Cube) RebuildTIDs(db *pathdb.DB) { c.rebuildTIDs(db) }

// CellsCopied reports how many cells this generation has copied from the
// ones before it.
func (c *Cube) CellsCopied() int { return c.cellsCopied }

// OwnedCell is ownedCell.
func (c *Cube) OwnedCell(spec CuboidSpec, values []hierarchy.NodeID) *Cell {
	return c.ownedCell(spec, values)
}

// RemineCell re-mines a cell of path level pathLevel as ApplyDelta does:
// against its cached conditions and the ones its last added records made
// frequent, with a stage cache, so a cold cell mines its whole condition
// set.
func (c *Cube) RemineCell(cell *Cell, pathLevel int, db *pathdb.DB, added int) (int, error) {
	c.encodeStages(db)
	r := &reminer{cube: c, db: db, stageTxs: c.stages}
	return r.remine(cell, pathLevel, added)
}

// EnumerateCellValues is enumerateCellValues.
func (c *Cube) EnumerateCellValues(spec CuboidSpec) ([][]hierarchy.NodeID, bool) {
	return c.enumerateCellValues(spec)
}

// ParentRefs is parentRefs.
func (c *Cube) ParentRefs(spec CuboidSpec, values []hierarchy.NodeID) []CellRef {
	return c.parentRefs(spec, values)
}

// SectionCellRangesForTest returns, from a lazily loaded cube's directory,
// the [start, end) byte range of every cell of a cuboid's section payload in
// CompareCells order, so corruption tests can cut a section at cell
// boundaries.
func (c *Cube) SectionCellRangesForTest(spec CuboidSpec) [][2]int {
	d, err := c.Cuboids[spec.Key()].base.dir()
	if err != nil {
		return nil
	}
	out := make([][2]int, len(d.entries))
	for i, e := range d.entries {
		out[i] = [2]int{int(e.off), int(e.end)}
	}
	return out
}

// SaveFileThrough is SaveFile with every write of the snapshot going
// through wrap.
func (c *Cube) SaveFileThrough(path string, wrap func(io.Writer) io.Writer) error {
	return saveFile(path, func(w io.Writer) error { return c.Save(wrap(w)) })
}
