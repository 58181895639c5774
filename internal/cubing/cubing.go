// Package cubing implements the paper's Algorithm 2 — the cubing-based
// competitor to Shared. It splits the path database into the item
// dimensions Di and the paths Dp, computes a BUC-style iceberg cube over Di
// whose cell measure is the list of transaction identifiers aggregated in
// the cell, and then runs an independent Apriori over the encoded paths of
// each frequent cell.
//
// The cube is computed from high abstraction levels toward low ones so that
// an infrequent high-level cell prunes all of its specializations, which is
// the property the paper requires of the cubing algorithm. What Algorithm 2
// cannot do — and what the evaluation measures — is prune by the *path*
// lattice: a path stage found infrequent at a high level is regenerated and
// recounted as a candidate in every cell.
package cubing

import (
	"flowcube/internal/core"
	"flowcube/internal/hierarchy"
	"flowcube/internal/itemset"
	"flowcube/internal/mining"
	"flowcube/internal/pathdb"
	"flowcube/internal/transact"
)

// CellResult is the mined content of one frequent cell.
type CellResult struct {
	// Values holds, per dimension, the cell's concept (hierarchy.Root for
	// an aggregated '*' dimension).
	Values []hierarchy.NodeID
	// Count is the number of paths aggregated in the cell.
	Count int64
	// Segments are the frequent path-segment itemsets mined in the cell
	// (stage items only): element k-1 holds the segments of k stages.
	Segments []itemset.Level
}

// Result maps cells to their mined content.
type Result struct {
	Cells map[core.CellID]*CellResult
	// TIDBytes approximates the transaction-identifier list volume the
	// algorithm materializes (4 bytes per TID per frequent cell), the I/O
	// cost §5.2 calls out.
	TIDBytes int64
}

type engine struct {
	db        *pathdb.DB
	syms      *transact.Symbols
	stageTxs  []transact.Transaction
	dimLevels [][]int
	minCount  int64
	res       *Result
}

// Run executes Algorithm 2. The symbol table supplies the encoding plan;
// its path levels define the stage items mined per cell, and its dimension
// levels define the cuboids enumerated. opts.MinSupport/MinCount set the
// iceberg threshold δ, which is also the per-cell segment support (matching
// Shared, whose mixed itemsets carry the same absolute threshold). The
// pruning toggles of opts do not apply: per the paper, each cell is mined
// with plain Apriori.
func Run(db *pathdb.DB, syms *transact.Symbols, opts mining.Options) (*Result, error) {
	minCount, err := mining.ResolveMinCount(opts, db.Len())
	if err != nil {
		return nil, err
	}
	e := &engine{
		db:        db,
		syms:      syms,
		dimLevels: syms.DimLevels(),
		minCount:  minCount,
		res:       &Result{Cells: make(map[core.CellID]*CellResult)},
	}
	// Step 2: transform Dp into a transaction database of encoded stages.
	e.stageTxs = make([]transact.Transaction, db.Len())
	for i, r := range db.Records {
		e.stageTxs[i] = syms.EncodeStages(r.Path)
	}

	all := make([]int32, db.Len())
	for i := range all {
		all[i] = int32(i)
	}
	cell := make([]hierarchy.NodeID, len(db.Schema.Dims))
	for i := range cell {
		cell[i] = hierarchy.Root
	}
	// The apex cell holds every path; it is frequent whenever the database
	// meets the threshold at all.
	if int64(len(all)) >= minCount {
		e.emit(cell, all)
		e.expandFrom(0, all, cell)
	}
	return e.res, nil
}

// expandFrom tries to group each remaining dimension, BUC style.
func (e *engine) expandFrom(dim int, tids []int32, cell []hierarchy.NodeID) {
	for d := dim; d < len(cell); d++ {
		e.expandDim(d, 0, tids, cell)
	}
}

// expandDim groups the tids by dimension d at its levelIdx-th materialized
// level (high abstraction first), recursing into frequent groups: sideways
// to later dimensions and downward to the next level of d. Infrequent
// groups are pruned together with all their specializations — the iceberg
// property.
func (e *engine) expandDim(d, levelIdx int, tids []int32, cell []hierarchy.NodeID) {
	if levelIdx >= len(e.dimLevels[d]) {
		return
	}
	level := e.dimLevels[d][levelIdx]
	h := e.db.Schema.Dims[d]
	groups := make(map[hierarchy.NodeID][]int32)
	for _, tid := range tids {
		v := h.AncestorAt(e.db.Records[tid].Dims[d], level)
		groups[v] = append(groups[v], tid)
	}
	for v, g := range groups {
		if int64(len(g)) < e.minCount {
			continue
		}
		cell[d] = v
		e.emit(cell, g)
		e.expandFrom(d+1, g, cell)
		e.expandDim(d, levelIdx+1, g, cell)
	}
	cell[d] = hierarchy.Root
}

// emit records the frequent cell and mines its frequent path segments over
// the cell's stage transactions with plain Apriori: the Shared loop with no
// pruning flag set (Algorithm 2 steps 5-6).
func (e *engine) emit(cell []hierarchy.NodeID, tids []int32) {
	txs := make([]transact.Transaction, len(tids))
	for i, tid := range tids {
		txs[i] = e.stageTxs[tid]
	}
	// Mine's only error is a threshold it cannot resolve, and Run resolved
	// e.minCount >= 1 before the first cell.
	res, _ := mining.Mine(e.syms, txs, mining.Options{MinCount: e.minCount})
	e.res.TIDBytes += int64(4 * len(tids))
	e.res.Cells[core.MakeCellID(cell)] = &CellResult{
		Values:   append([]hierarchy.NodeID(nil), cell...),
		Count:    int64(len(tids)),
		Segments: res.ByLength,
	}
}
