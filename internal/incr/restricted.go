package incr

// Restricted exception re-mining: the batch-proportional replacement for
// re-mining every touched cell from scratch (DESIGN.md §11).
//
// The full path re-derives a touched cell's conditions by mining all of its
// transactions (cellConds) and replaces its whole exception set — cost
// tracking cube size, not batch size. The restricted path exploits two
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
//     the support of every such set, so one fp-growth run over the
//     projection (internal/fpgrowth), post-filtered with the same
//     hereditary predicates the Shared run prunes with, finds exactly the
//     new conditions. Old conditions stay frequent (supports are monotone)
//     and are remembered in the cube's condition cache (core/conds.go).
//
// The recombination — retained exceptions at unmoved targets, single-stage
// and old-condition mining at moved targets, new-condition mining at all
// targets, then one dedup+sort seal — reproduces the full re-mine's set
// byte-identically; incr's save-digest property tests exercise it on every
// build (Build warms the cache, so chained ApplyDelta calls run restricted).

import (
	"flowcube/internal/core"
	"flowcube/internal/flowgraph"
	"flowcube/internal/fpgrowth"
	"flowcube/internal/pathdb"
	"flowcube/internal/transact"
)

// remineRestricted recomputes one touched cell's exceptions from its cached
// condition set and the batch records that landed in it, and returns the
// moved-prefix count (for stats) and the newly frequent conditions (for the
// caller to fold into the cache). paths is the cell's full union record
// set; the cell must have a graph.
func remineRestricted(cube *core.Cube, db *pathdb.DB, plIdx int, cell *core.Cell, batchTIDs []int32, paths []pathdb.Path, old *core.CondSet, minCount int64) (int, [][]flowgraph.StagePin, error) {
	cfg := cube.Config
	g := cell.Graph
	batchPaths := make([]pathdb.Path, len(batchTIDs))
	for i, tid := range batchTIDs {
		batchPaths[i] = db.Records[tid].Path
	}
	moved := g.MovedNodes(batchPaths)
	g.RetainExceptions(func(x *flowgraph.Exception) bool { return !moved[x.Node] })
	if cfg.SingleStageExceptions {
		g.MineExceptionsAt(paths, moved, cfg.Epsilon, minCount)
	}
	newConds, err := cellCondsDelta(cube, db, plIdx, cell.TIDs(), batchTIDs, old)
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

// cellCondsDelta finds the conditions newly frequent among a cell's records
// after a batch: fp-growth over the cell's transactions projected to the
// batch's stage items at the cuboid's path level, post-filtered with the
// Shared run's pruning predicates and the build phase's pin filters, minus
// anything already in the old condition set. See the file comment for the
// exactness argument; cellConds (incr.go) documents the shared projection
// and filter conventions.
func cellCondsDelta(cube *core.Cube, db *pathdb.DB, plIdx int, tids, batchTIDs []int32, old *core.CondSet) ([][]flowgraph.StagePin, error) {
	syms := cube.Symbols
	if syms.PathLevels()[plIdx].Time.Any {
		return nil, nil
	}
	movedItems := make(map[transact.Item]bool)
	for _, tid := range batchTIDs {
		for _, it := range syms.EncodeStages(db.Records[tid].Path) {
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
		for _, it := range syms.EncodeStages(db.Records[tid].Path) {
			if syms.StageLevel(it) == plIdx && movedItems[it] {
				t = append(t, it)
			}
		}
		if len(t) > 0 {
			txs = append(txs, t)
		}
	}
	var conds [][]flowgraph.StagePin
	for _, l := range fpgrowth.Mine(txs, cube.MinCount(), 0) {
		for i := 0; i < l.Len(); i++ {
			set := l.Set(i)
			if syms.HasAncestorPair(set) || !syms.AllLinkable(set) {
				continue
			}
			level, pins, ok := core.StagePins(syms, set)
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
