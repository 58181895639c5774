package incr

// Restricted exception re-mining: a touched cell's exceptions recomputed at
// a cost that follows the batch, not the cell (DESIGN.md §11).
//
// remine takes the condition set known to hold over the cell's records
// before the batch and the record ids the batch added, and exploits two
// facts, both consequences of appends moving supports only upward:
//
//  1. An exception is keyed by a target node, and every aggregate behind it
//     depends only on the paths running through that target. Nodes on no
//     batch path ("unmoved") keep their exceptions verbatim; only moved
//     targets re-aggregate.
//
//  2. A condition frequent over the union but not over the base consists
//     solely of "moved" items — stage items some batch record carries —
//     because its support rose, so some batch transaction contains all of
//     it. Projecting the cell's transactions to the moved items preserves
//     the support of every such set, so one mining.Mine run over the
//     projection finds exactly the new conditions. Old conditions stay
//     frequent (supports are monotone) and are remembered in the cube's
//     condition cache (core/conds.go).
//
// The recombination — retained exceptions at unmoved targets, single-stage
// and old-condition mining at moved targets, new-condition mining at all
// targets, then one dedup+sort seal — reproduces a from-scratch mine of the
// union byte-identically; incr's save-digest property tests exercise it on
// every build (Build warms the cache, so chained ApplyDelta calls run warm).
//
// A cell with nothing cached — freshly admitted, or its cache dropped — is
// the same computation with an empty condition set and every record of the
// cell as the batch: every node and stage item is moved, nothing is
// retained, and the mine yields the cell's whole condition set.

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
		r.stageTxs[tid] = r.cube.Symbols.EncodeStages(r.db.Records[tid].Path)
	}
	return r.stageTxs[tid]
}

func (r *reminer) paths(tids []int32) []pathdb.Path {
	paths := make([]pathdb.Path, len(tids))
	for i, tid := range tids {
		paths[i] = r.db.Records[tid].Path
	}
	return paths
}

// remine recomputes one touched cell's exceptions from the condition set old
// and the records batchTIDs added to it, and returns the moved-prefix count
// (for stats) and the newly frequent conditions (for the caller to fold into
// the cache). The cell must have a graph and its union record ids.
func (r *reminer) remine(plIdx int, cell *core.Cell, batchTIDs []int32, old *core.CondSet) (int, [][]flowgraph.StagePin, error) {
	cfg := r.cube.Config
	minCount := r.cube.MinCount()
	g, tids := cell.Graph, cell.TIDs()
	paths := r.paths(tids)
	moved := g.MovedNodes(r.paths(batchTIDs))
	g.RetainExceptions(func(x *flowgraph.Exception) bool { return !moved[x.Node] })
	if cfg.SingleStageExceptions {
		g.MineExceptionsAt(paths, moved, cfg.Epsilon, minCount)
	}
	newConds, err := r.newConds(plIdx, tids, batchTIDs, old)
	if err != nil {
		return 0, nil, err
	}
	if len(old.Pins) > 0 {
		// Old conditions can only produce changed exceptions at moved
		// targets; the unmoved ones were just retained.
		g.MineExceptionsForAt(paths, old.Pins, moved, cfg.Epsilon, minCount)
	}
	if len(newConds) > 0 {
		// New conditions pin moved items, but base paths matching them may
		// continue through unmoved nodes — mine them at every target.
		g.MineExceptionsForAt(paths, newConds, nil, cfg.Epsilon, minCount)
	}
	g.SealExceptions()
	return len(moved), newConds, nil
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
