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
	"sort"

	"flowcube/internal/flowgraph"
)

// CondSet is one cell's cached exception conditions: the pin-lists passed
// to MineExceptionsFor, plus a canonical-key index for membership tests.
type CondSet struct {
	// Pins holds the conditional pin-lists. Read-only.
	Pins [][]flowgraph.StagePin

	keys map[string]bool
}

// NewCondSet indexes the given pin-lists. The caller must not mutate pins
// afterwards; duplicates (same canonical key) are kept in Pins.
func NewCondSet(pins [][]flowgraph.StagePin) *CondSet {
	s := &CondSet{Pins: pins, keys: make(map[string]bool, len(pins))}
	for _, p := range pins {
		s.keys[CondPinKey(p)] = true
	}
	return s
}

// Has reports whether an equivalent pin-list (same pins, any order) is in
// the set. A nil set has nothing.
func (s *CondSet) Has(pins []flowgraph.StagePin) bool {
	return s != nil && s.keys[CondPinKey(pins)]
}

// CondPinKey renders a pin-list's canonical identity: pins sorted by depth,
// each encoded with its depth, location, and duration. Two pin-lists get
// the same key exactly when the exception miner treats them as the same
// condition.
func CondPinKey(pins []flowgraph.StagePin) string {
	cc := append([]flowgraph.StagePin(nil), pins...)
	sort.Slice(cc, func(i, j int) bool { return cc[i].Depth < cc[j].Depth })
	var b []byte
	for _, pin := range cc {
		b = append(b, byte(pin.Depth), byte(pin.Location))
		if pin.DurAny {
			b = append(b, '*')
		} else {
			for s := 0; s < 8; s++ {
				b = append(b, byte(pin.Duration>>(8*s)))
			}
		}
	}
	return string(b)
}

// CachedConds returns the cached condition set of a cell (identified by its
// cuboid spec key and CellKey), with ok=false on a cold cache. Only cells in
// memory carry one: a cell still in a mapped base is cold.
func (c *Cube) CachedConds(specKey, cellKey string) (*CondSet, bool) {
	cb := c.Cuboids[specKey]
	if cb == nil {
		return nil, false
	}
	cell := cb.Cells[cellKey]
	if cell == nil || cell.conds == nil {
		return nil, false
	}
	return cell.conds, true
}

// SetCachedConds records a cell's condition set, replacing any previous
// entry with a fresh one (entries are immutable; the generation this one
// was forked from keeps the old entry on its own copy of the cell). It is a
// no-op when the cell is not materialized.
func (c *Cube) SetCachedConds(specKey, cellKey string, pins [][]flowgraph.StagePin) {
	if cell := c.OwnedCell(specKey, cellKey); cell != nil {
		cell.conds = NewCondSet(pins)
	}
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
