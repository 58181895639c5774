package core

// Exception re-mining and its condition cache (DESIGN.md §11): the per-cell
// conditional pin-lists the exception miner checked, remembered so that
// ApplyDelta can re-derive a cell's conditions from a batch instead of
// re-mining them from scratch.
//
// The cache is in-memory bookkeeping only — it is not serialized into
// snapshots and has no effect on Save bytes. A cube built with
// Config.MineExceptions warms it during mineExceptions; a cell ApplyDelta
// admits starts cold, and its first re-mine (from an empty set, over all of
// its records) warms the entry. An entry hangs off its cell and is
// immutable once stored, so it follows the cell from one generation to the
// next and is replaced, never edited, when a batch adds conditions.
//
// What the cache cannot know is which conditions a batch made frequent.
// Appends move supports only upward, so such a condition consists solely of
// "moved" items — stage items some batch record carries — since some batch
// transaction contains all of it. Projecting the cell's transactions to the
// moved items preserves the support of every such set, so one mining.Mine
// run over the projection finds exactly the new conditions; old ones stay
// frequent and are already cached. A cold cell is the same computation with
// every record of the cell counted as new: every stage item is moved, and
// the mine yields the cell's whole condition set.

import (
	"slices"
	"sort"

	"flowcube/internal/flowgraph"
	"flowcube/internal/mining"
	"flowcube/internal/pathdb"
	"flowcube/internal/transact"
)

// condSet is one cell's cached exception conditions: the pin-lists the
// miner checks, plus a canonical-key index for membership tests.
type condSet struct {
	// pins holds the conditional pin-lists. Read-only.
	pins [][]flowgraph.StagePin

	keys map[string]bool
}

// newCondSet indexes the given pin-lists. The caller must not mutate pins
// afterwards; duplicates (same canonical key) are kept in pins.
func newCondSet(pins [][]flowgraph.StagePin) *condSet {
	s := &condSet{pins: pins, keys: make(map[string]bool, len(pins))}
	for _, p := range pins {
		s.keys[condPinKey(p)] = true
	}
	return s
}

// has reports whether an equivalent pin-list (same pins, any order) is in
// the set. A nil set has nothing.
func (s *condSet) has(pins []flowgraph.StagePin) bool {
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

// reminer re-mines cells' exceptions over their records in db. Build's has
// no stage cache and mines no new conditions: it has just seeded every
// cell's cache with the conditions the Shared run found. ApplyDelta's mines
// the conditions each touched cell's new records made frequent.
type reminer struct {
	cube *Cube
	db   *pathdb.DB
	// stageTxs[tid] is the record's stage items at every path level: the
	// sub-δ ledger's stage transactions (ledger.go), encoded once per record
	// along a lineage rather than once per cell that holds it, into the
	// ledger's symbol table syms. Both nil for Build's reminer.
	stageTxs []transact.Transaction
	syms     *transact.Symbols
}

// remine re-mines the exceptions of a cell of path level pathLevel that
// Build is filling or that ApplyDelta obtained from ownedCell or admitCell,
// over its records' ids, ascending, and their paths aggregated to the
// level: the last added of them are new since prev, the graph they were
// folded into to make the cell's, was mined.
// A cold cache knows nothing of the exceptions the cell holds, so there
// every record counts as new whatever added says. The cached conditions are
// checked at the flowgraph nodes the new records moved and the newly
// frequent ones at every node; the cache then holds both (a new entry — the
// generation this one was forked from keeps the old one on its own copy of
// the cell). The cell takes the mined graph. It returns the number of moved
// nodes, 0 when every record is new.
func (r *reminer) remine(cell *Cell, prev *flowgraph.Graph, pathLevel int, ids []int32, paths []pathdb.Path, added int) (int, error) {
	var old [][]flowgraph.StagePin
	if cell.conds != nil {
		old = cell.conds.pins
	} else {
		added = len(paths)
	}
	var fresh [][]flowgraph.StagePin
	if r.stageTxs != nil {
		var err error
		if fresh, err = r.newConds(pathLevel, ids, ids[len(ids)-added:], cell.conds); err != nil {
			return 0, err
		}
	}
	g, moved := cell.Graph.MineExceptions(prev, paths, added, old, fresh, flowgraph.ExceptionOptions{
		Eps:      r.cube.Config.Epsilon,
		MinCount: r.cube.minCount,
	})
	cell.Graph = g
	if cell.conds == nil || len(fresh) > 0 {
		cell.conds = newCondSet(append(slices.Clip(old), fresh...))
	}
	return moved, nil
}

// paths returns the paths of the records ids aggregated to path level
// pathLevel, in one arena.
func (r *reminer) paths(pathLevel int, ids []int32) []pathdb.Path {
	level := r.cube.PathLevels()[pathLevel]
	var stages pathdb.Path
	out := make([]pathdb.Path, len(ids))
	for i, tid := range ids {
		lo := len(stages)
		stages = pathdb.AppendAggregated(stages, r.db.Records[tid].Path, level, nil)
		out[i] = stages[lo:len(stages):len(stages)]
	}
	return out
}

// newConds finds the conditions newly frequent among a cell's records after
// a batch: the frequent same-level path segments of the cell's transactions
// projected to the batch's stage items at the cuboid's path level, minus
// anything already in the old condition set. A transaction contains the
// cell's dimension items iff the record belongs to the cell, so in-cell
// stage supports equal the supports of the mixed dim+stage itemsets a full
// build finds the conditions among. Ancestor and linkability pruning mirror
// the Shared run (they shape the output set); pre-counting is off because
// the projected transactions lack the coarser levels it counts against (it
// is a lossless optimization, so the result set is unchanged).
//
// Duration-'*' path levels yield no conditions — every pin would be
// duration-'*', which stagePins rejects as vacuous — so mining is skipped
// there entirely.
func (r *reminer) newConds(plIdx int, tids, batchTIDs []int32, old *condSet) ([][]flowgraph.StagePin, error) {
	syms := r.syms
	if r.cube.PathLevels()[plIdx].Time.Any {
		return nil, nil
	}
	movedItems := make(map[transact.Item]bool)
	for _, tid := range batchTIDs {
		for _, it := range r.stageTxs[tid] {
			if syms.StageLevel(it) == plIdx {
				movedItems[it] = true
			}
		}
	}
	if len(movedItems) == 0 {
		return nil, nil
	}
	txs := make([]transact.Transaction, 0, len(tids))
	for _, tid := range tids {
		var t transact.Transaction
		for _, it := range r.stageTxs[tid] {
			if movedItems[it] {
				t = append(t, it)
			}
		}
		if len(t) > 0 {
			txs = append(txs, t)
		}
	}
	res, err := mining.Mine(syms, txs, mining.Options{
		MinCount:      r.cube.minCount,
		PruneAncestor: true,
		PruneLink:     true,
	})
	if err != nil {
		return nil, err
	}
	var conds [][]flowgraph.StagePin
	for _, l := range res.ByLength {
		for i := 0; i < l.Len(); i++ {
			level, pins, ok := stagePins(syms, l.Set(i))
			if !ok || level != plIdx {
				continue
			}
			if old.has(pins) {
				// Already a condition of the base cell. A duplicate slot would
				// mine identical exceptions and fall to the dedup seal anyway.
				continue
			}
			conds = append(conds, pins)
		}
	}
	return conds, nil
}

// DropCondCache empties the cache, so ApplyDelta re-mines every touched
// cell from an empty set over all of its records. Tests use it as the
// reference the warm re-mine is compared against.
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
