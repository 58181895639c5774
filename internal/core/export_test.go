package core

import (
	"fmt"
	"io"
	"slices"

	"flowcube/internal/flowgraph"
	"flowcube/internal/hierarchy"
	"flowcube/internal/pathdb"
	"flowcube/internal/transact"
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
// claimed: the cube's next append derives its own). The fresh derivation
// interns into a symbol table of its own, as a sibling's does. oracle.Run
// checks it after every step of a chain.
func (c *Cube) LedgerDiff(db *pathdb.DB) string {
	if c.ledger == nil || c.ledger.stamp.Load() != int64(db.Len()) {
		return ""
	}
	return LedgerDiff(c.DeriveLedger(db), c.ledger)
}

// DeriveLedger is deriveLedger, released: what the cube's next append would
// derive.
func (c *Cube) DeriveLedger(db *pathdb.DB) *deltaLedger {
	l := c.deriveLedger(db)
	l.release(db.Len())
	return l
}

// LedgerDiff describes the first difference between two ledgers, or is
// empty: a combination, in item-level key and cell order, whose count in
// got differs from want's (an entry missing from a ledger counts 0, and
// empty item levels do not count), then a cell whose record ids differ,
// then a record whose stage transaction differs. Each side's stage items
// are read through its own symbol table, which need not number them as the
// other does: two items are the same when their path level, location
// prefix and duration are.
func LedgerDiff(want, got *deltaLedger) string {
	if d := diffLevels(want.levels, got.levels, func(a, b int64) bool { return a == b }); d != "" {
		return "count of " + d
	}
	if d := diffLevels(want.ids, got.ids, slices.Equal[[]int32]); d != "" {
		return "record ids of " + d
	}
	if len(want.stages) != len(got.stages) {
		return fmt.Sprintf("stage transactions of %d records, want %d", len(got.stages), len(want.stages))
	}
	same := func(w, g transact.Item) bool {
		wd, wok := want.syms.StageDuration(w)
		gd, gok := got.syms.StageDuration(g)
		return want.syms.StageLevel(w) == got.syms.StageLevel(g) &&
			slices.Equal(want.syms.StageSeq(w), got.syms.StageSeq(g)) && wd == gd && wok == gok
	}
	for tid := range want.stages {
		if !slices.EqualFunc(want.stages[tid], got.stages[tid], same) {
			return fmt.Sprintf("record %d: stage transaction %s, want %s",
				tid, got.syms.SetString(got.stages[tid]), want.syms.SetString(want.stages[tid]))
		}
	}
	return ""
}

// diffLevels describes the first entry, in item-level key and cell order,
// whose value in got differs from want's under eq, or is empty.
func diffLevels[V any](w, g map[string]map[CellID]V, eq func(a, b V) bool) string {
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
			if !eq(w[key][id], g[key][id]) {
				return fmt.Sprintf("level %s, combination %s: %v, want %v", key, formatCell(id.values()), g[key][id], w[key][id])
			}
		}
	}
	return ""
}

// Symbols returns the symbol table the ledger's stage transactions are
// interned into, nil when it keeps none.
func (l *deltaLedger) Symbols() *transact.Symbols { return l.syms }

// IDs returns the record ids the ledger keeps for a cell of the spec's item
// level, nil when it keeps none.
func (l *deltaLedger) IDs(spec CuboidSpec, values []hierarchy.NodeID) []int32 {
	return l.ids[spec.Item.Key()][MakeCellID(values)]
}

// AssignCells is assignCells: every cell's record ids in db, as Build
// assigns them.
func (c *Cube) AssignCells(db *pathdb.DB) map[*Cell][]int32 { return c.assignCells(db) }

// CachedConds returns the cell's cached condition set, with ok=false on a
// cold cache.
func (cell *Cell) CachedConds() (*condSet, bool) { return cell.conds, cell.conds != nil }

// CellsCopied reports how many cells this generation has copied from the
// ones before it.
func (c *Cube) CellsCopied() int { return c.cellsCopied }

// OwnedCell is ownedCell.
func (c *Cube) OwnedCell(spec CuboidSpec, values []hierarchy.NodeID) *Cell {
	return c.ownedCell(spec, values)
}

// RemineCell re-mines a cell of the spec's cuboid as ApplyDelta does:
// against its cached conditions and the ones its last added records made
// frequent, over the record ids and stage transactions a ledger derived
// from db holds, so a cold cell mines its whole condition set. The cell's
// graph already holds the added records, so its own exceptions are the ones
// a warm re-mine carries over.
func (c *Cube) RemineCell(spec CuboidSpec, cell *Cell, db *pathdb.DB, added int) (int, error) {
	l := c.deriveLedger(db)
	r := &reminer{cube: c, db: db, stageTxs: l.stages, syms: l.syms}
	ids := l.IDs(spec, cell.Values)
	return r.remine(cell, cell.Graph, spec.PathLevel, ids, r.paths(spec.PathLevel, ids), added)
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

// SaveFileThrough is SaveFile with every write that reaches the file going
// through wrap.
func (c *Cube) SaveFileThrough(path string, wrap func(io.Writer) io.Writer) error {
	return saveFile(path, c.Save, wrap)
}

// AppendFlatGraph is appendFlatGraph: a cell's flowgraph as its snapshot
// bytes carry it.
var AppendFlatGraph = appendFlatGraph
