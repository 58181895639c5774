package incr

// New conditions for a touched cell's exception re-mine (DESIGN.md §11).
//
// core.Cube.RemineCell re-mines a cell from the conditions its cache holds
// and the records a batch added: only the flowgraph nodes on the new paths
// re-aggregate. What it cannot know is which conditions the batch made
// frequent. Appends move supports only upward, so such a condition consists
// solely of "moved" items — stage items some batch record carries — since
// some batch transaction contains all of it. Projecting the cell's
// transactions to the moved items preserves the support of every such set,
// so one mining.Mine run over the projection finds exactly the new
// conditions; old ones stay frequent and are already cached.
//
// A cell with nothing cached — freshly admitted, or its cache dropped — is
// the same computation with every record of the cell counted as new: every
// stage item is moved, and the mine yields the cell's whole condition set.

import (
	"flowcube/internal/core"
	"flowcube/internal/flowgraph"
	"flowcube/internal/mining"
	"flowcube/internal/pathdb"
	"flowcube/internal/transact"
)

// reminer is what the re-mines of one ApplyDelta call share.
type reminer struct {
	cube *core.Cube
	db   *pathdb.DB
	// stageTxs[tid] is the record's stage items at every path level, encoded
	// on first use: a record lies in one cell per cuboid, and every touched
	// cell reads all of its records.
	stageTxs []transact.Transaction
}

func (r *reminer) stages(tid int32) transact.Transaction {
	if r.stageTxs[tid] == nil {
		r.stageTxs[tid] = r.cube.OwnedSymbols().EncodeStages(r.db.Records[tid].Path)
	}
	return r.stageTxs[tid]
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
// duration-'*', which StagePins rejects as vacuous — so mining is skipped
// there entirely.
func (r *reminer) newConds(plIdx int, tids, batchTIDs []int32, old *core.CondSet) ([][]flowgraph.StagePin, error) {
	syms := r.cube.Symbols
	if syms.PathLevels()[plIdx].Time.Any {
		return nil, nil
	}
	movedItems := make(map[transact.Item]bool)
	for _, tid := range batchTIDs {
		for _, it := range r.stages(tid) {
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
		for _, it := range r.stages(tid) {
			if movedItems[it] {
				t = append(t, it)
			}
		}
		if len(t) > 0 {
			txs = append(txs, t)
		}
	}
	res, err := mining.Mine(syms, txs, mining.Options{
		MinCount:      r.cube.MinCount(),
		PruneAncestor: true,
		PruneLink:     true,
	})
	if err != nil {
		return nil, err
	}
	var conds [][]flowgraph.StagePin
	for _, l := range res.ByLength {
		for i := 0; i < l.Len(); i++ {
			level, pins, ok := core.StagePins(syms, l.Set(i))
			if !ok || level != plIdx {
				continue
			}
			if old.Has(pins) {
				// Already a condition of the base cell. A duplicate slot would
				// mine identical exceptions and fall to the dedup seal anyway.
				continue
			}
			conds = append(conds, pins)
		}
	}
	return conds, nil
}
