// Package incr maintains a materialized flowcube under streaming appends
// (DESIGN.md §9). The paper builds its flowcubes once over a static path
// database and defers incremental update to future work (§7); this package
// supplies that delta-maintenance step: ApplyDelta takes a cube, the
// database it was built over, and a batch of new records, and updates only
// the affected state — the touched cells' counts, flowgraphs, exceptions
// and redundancy frontier, plus any sub-δ combination the batch pushes over
// the iceberg threshold.
//
// Delta application is exact: applying a batch and saving the cube yields
// the same snapshot bytes as a full Build over the union database with the
// same configuration. That holds because, with an absolute iceberg
// threshold, appends move every support monotonically upward — untouched
// cells are provably unchanged, and everything a batch can change is
// reachable from the batch's own records: the cells they land in, the
// below-threshold combinations they push over δ (decided by the sub-δ
// ledger carried in the cube, or one restricted base scan without it), and
// the item-lattice children of those cells for redundancy re-marking.
//
// Exactness therefore requires the cube's configuration to be
// N-independent: an absolute Config.MinCount (a fractional MinSupport
// re-resolves against the grown database, silently changing δ). ApplyDelta
// rejects a fractional threshold with a typed error.
package incr

import (
	"errors"
	"fmt"

	"flowcube/internal/core"
	"flowcube/internal/hierarchy"
	"flowcube/internal/pathdb"
)

// Typed failures, testable with errors.Is / errors.As.
var (
	// ErrNilCube reports a nil cube argument.
	ErrNilCube = errors.New("incr: nil cube")
	// ErrNilDB reports a nil database argument.
	ErrNilDB = errors.New("incr: nil database")
	// ErrAbsoluteMinCount reports a cube built with a fractional iceberg
	// threshold: delta maintenance requires Config.MinCount > 0, because a
	// fractional MinSupport re-resolves against the grown database and
	// silently changes δ — exactness against a full rebuild is impossible.
	ErrAbsoluteMinCount = errors.New("incr: delta maintenance requires an absolute Config.MinCount")
	// ErrSchemaMismatch reports a database whose schema is not the one the
	// cube was built over.
	ErrSchemaMismatch = errors.New("incr: database schema does not match the cube's")
)

// BatchError reports one invalid record in an append batch. The batch is
// rejected atomically: no cube or database state changes before every
// record validates.
type BatchError struct {
	// Index is the offending record's position in the batch.
	Index int
	// Err is the underlying validation failure.
	Err error
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("incr: batch record %d: %v", e.Index, e.Err)
}

func (e *BatchError) Unwrap() error { return e.Err }

// Stats reports what one ApplyDelta call did.
type Stats struct {
	// BatchRecords is the number of records appended.
	BatchRecords int `json:"batch_records"`
	// CellsTouched is the number of existing materialized (cuboid, cell)
	// entries the batch landed in.
	CellsTouched int `json:"cells_touched"`
	// CellsAdmitted is the number of newly materialized (cuboid, cell)
	// entries: sub-δ combinations the batch pushed over the iceberg
	// threshold, registered in every cuboid sharing their item level.
	CellsAdmitted int `json:"cells_admitted"`
	// ExceptionsRemined is the number of cells whose exception set was
	// recomputed (0 unless the cube was built with MineExceptions).
	ExceptionsRemined int `json:"exceptions_remined"`
	// CellsReminedRestricted is how many of those cells re-mined at a cost
	// proportional to the batch (warm condition cache; see restricted.go)
	// rather than from an empty condition set over all of their records.
	CellsReminedRestricted int `json:"cells_remined_restricted"`
	// PrefixesRemined is the total number of moved flowgraph prefixes
	// (nodes on a batch path) those warm cells re-aggregated.
	PrefixesRemined int `json:"prefixes_remined"`
	// RedundancyRemarked is the number of cells re-marked for redundancy
	// (touched cells plus their item-lattice children; 0 unless Tau > 0).
	RedundancyRemarked int `json:"redundancy_remarked"`
	// LedgerSize is the number of sub-δ ledger entries after the delta
	// (0 when the cube carries no ledger).
	LedgerSize int `json:"ledger_size"`
	// CellsCopied is the number of cells this call copied from the
	// generation the cube was forked from: the cells it wrote, less any an
	// earlier call on the same fork already copied (0 on a cube patched in
	// place; every cell on the one call that recovers a loaded cube's tids).
	CellsCopied int `json:"cells_copied"`
	// NodesCopied is the number of flowgraph nodes copied with them: the
	// nodes on the batch's aggregated paths through the touched cells, root
	// included, once each — what a commit costs beyond the fold itself.
	NodesCopied int `json:"nodes_copied"`
}

// combo accumulates one (item level, values) combination observed in a
// batch: an existing cell the batch landed in, or a below-threshold
// admission candidate.
type combo struct {
	levelIdx int
	values   []hierarchy.NodeID
	count    int64
	tids     []int32 // batch record ids, ascending
	baseTids []int32 // base record ids, ascending (filled by matchBase)
}

// matchBase routes the base records once and appends the id of every record
// matching a wanted combination to it. wanted maps item-level index → cell →
// combo.
func matchBase(router *core.RecordRouter, db *pathdb.DB, baseLen int, wanted []map[core.CellID]*combo) {
	var levels []int
	for li, m := range wanted {
		if len(m) > 0 {
			levels = append(levels, li)
		}
	}
	for tid := 0; len(levels) > 0 && tid < baseLen; tid++ {
		router.Route(db.Records[tid].Dims)
		for _, li := range levels {
			id, _ := router.Cell(li)
			if c := wanted[li][core.CellID(id)]; c != nil {
				c.baseTids = append(c.baseTids, int32(tid))
			}
		}
	}
}

// schemaCompatible sanity-checks that a database's schema matches the
// cube's. Cubes loaded from snapshots reconstruct their schema, so pointer
// identity is too strict; the check is structural (dimension count and
// hierarchy sizes) — records of a structurally identical schema use the
// same node-id space, which is all delta application reads.
func schemaCompatible(a, b *pathdb.Schema) bool {
	if a == b {
		return true
	}
	if len(a.Dims) != len(b.Dims) || a.Location.Len() != b.Location.Len() {
		return false
	}
	for i := range a.Dims {
		if a.Dims[i].Len() != b.Dims[i].Len() {
			return false
		}
	}
	return true
}
