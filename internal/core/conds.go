package core

// Condition cache: the per-cell conditional pin-lists the exception miner
// checked, remembered so the incremental path (internal/incr) can re-derive
// a cell's conditions from a batch instead of re-mining them from scratch.
//
// The cache is in-memory bookkeeping only — it is not serialized into
// snapshots and has no effect on Save bytes. A cube built with
// Config.MineExceptions warms it during mineExceptions; a cell the
// incremental path admits starts cold, and its first re-mine (from an empty
// set, over all of its records) warms the entry. An entry hangs off its cell
// and is immutable once stored, so it follows the cell from one generation
// to the next and is replaced, never edited, when a batch adds conditions.

import (
	"slices"
	"sort"

	"flowcube/internal/flowgraph"
	"flowcube/internal/pathdb"
)

// CondSet is one cell's cached exception conditions: the pin-lists the
// miner checks, plus a canonical-key index for membership tests.
type CondSet struct {
	// Pins holds the conditional pin-lists. Read-only.
	Pins [][]flowgraph.StagePin

	keys map[string]bool
}

// newCondSet indexes the given pin-lists. The caller must not mutate pins
// afterwards; duplicates (same canonical key) are kept in Pins.
func newCondSet(pins [][]flowgraph.StagePin) *CondSet {
	s := &CondSet{Pins: pins, keys: make(map[string]bool, len(pins))}
	for _, p := range pins {
		s.keys[condPinKey(p)] = true
	}
	return s
}

// Has reports whether an equivalent pin-list (same pins, any order) is in
// the set. A nil set has nothing.
func (s *CondSet) Has(pins []flowgraph.StagePin) bool {
	return s != nil && s.keys[condPinKey(pins)]
}

// condPinKey renders a pin-list's canonical identity: its pins sorted by
// depth, encoded as an exception's condition is (flowgraph.AppendPins). Two
// pin-lists get the same key exactly when the exception miner treats them
// as the same condition.
func condPinKey(pins []flowgraph.StagePin) string {
	cc := append([]flowgraph.StagePin(nil), pins...)
	sort.Slice(cc, func(i, j int) bool { return cc[i].Depth < cc[j].Depth })
	return string(flowgraph.AppendPins(nil, cc))
}

// CachedConds returns the cell's cached condition set, with ok=false on a
// cold cache. A cell decoded from a mapped base is cold.
func (cell *Cell) CachedConds() (*CondSet, bool) {
	return cell.conds, cell.conds != nil
}

// RemineCell re-mines the exceptions of a cell Build is filling, or one
// obtained from OwnedCell or AdmitCell, over its records in db: the last
// added of its tids are new since its exceptions were last mined, and fresh
// are the conditions they made frequent. A cold cache knows nothing of the
// exceptions the cell holds, so there every record counts as new whatever
// added says. The cached conditions are checked at the flowgraph nodes the
// new records moved and fresh ones at every node; the cache then holds both
// (a new entry — the generation this one was forked from keeps the old one
// on its own copy of the cell). It returns the number of moved nodes, 0 when
// every record is new.
func (c *Cube) RemineCell(cell *Cell, db *pathdb.DB, added int, fresh [][]flowgraph.StagePin) int {
	paths := make([]pathdb.Path, len(cell.tids))
	for i, tid := range cell.tids {
		paths[i] = db.Records[tid].Path
	}
	var old [][]flowgraph.StagePin
	if cell.conds != nil {
		old = cell.conds.Pins
	} else {
		added = len(paths)
	}
	moved := cell.Graph.MineExceptions(paths, added, old, fresh, flowgraph.ExceptionOptions{
		SingleStage: c.Config.SingleStageExceptions,
		Eps:         c.Config.Epsilon,
		MinCount:    c.minCount,
	})
	if cell.conds == nil || len(fresh) > 0 {
		cell.conds = newCondSet(append(slices.Clip(old), fresh...))
	}
	return moved
}

// DropCondCache empties the cache, so the incremental path re-mines every
// touched cell from an empty set over all of its records. Tests use it as
// the reference the warm re-mine is compared against.
func (c *Cube) DropCondCache() {
	c.ownAllCells()
	for _, cb := range c.Cuboids {
		for _, cell := range cb.Cells {
			if cell != nil {
				cell.conds = nil
			}
		}
	}
}
