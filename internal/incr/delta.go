package incr

// Delta application: the writes to core.Cube state live in this file, which
// internal/lint's immutcube analyzer allowlists as a legitimate writer —
// ApplyDelta writes only cells it obtained from core.Cube.OwnedCell or
// AdmitCell, i.e. cells of the generation the caller handed it: a fresh
// build patched in place, or a core.Cube.Fork of the cube being served (the
// server's append path), whose untouched cells and flowgraph nodes stay
// shared with the served cube.

import (
	"sort"

	"flowcube/internal/core"
	"flowcube/internal/flowgraph"
	"flowcube/internal/hierarchy"
	"flowcube/internal/pathdb"
	"flowcube/internal/transact"
)

// ApplyDelta appends a batch of records to the cube and its database,
// updating only the affected state. On success db holds the union database
// (base records followed by the batch) and the cube is exactly what a full
// Build over that union with the same configuration would produce — byte
// identical under Save.
//
// The batch is validated atomically up front: any invalid record rejects
// the whole call with a *BatchError before anything changes. The cube must
// carry an absolute iceberg threshold (Config.MinCount > 0); see the package
// comment for why.
//
// ApplyDelta must not run concurrently with readers of cube, db, or the
// cube's symbol table. Long-lived servers patch a Fork of the served cube —
// readers of the served cube are not disturbed, and dropping the fork is
// the rollback — and swap snapshots (internal/server does). It reads the
// cube only through Lookup and value-tuple walks, so over a lazily opened
// snapshot it decodes the cells the batch reaches and their lattice
// neighbours, not the snapshot.
func ApplyDelta(cube *core.Cube, db *pathdb.DB, batch []pathdb.Record) (*Stats, error) {
	if cube == nil {
		return nil, ErrNilCube
	}
	if db == nil {
		return nil, ErrNilDB
	}
	cfg := cube.Config
	if cfg.MinCount <= 0 {
		return nil, ErrAbsoluteMinCount
	}
	if !schemaCompatible(db.Schema, cube.Schema) {
		return nil, ErrSchemaMismatch
	}
	for i := range batch {
		if err := db.Schema.ValidateRecord(batch[i]); err != nil {
			return nil, &BatchError{Index: i, Err: err}
		}
	}
	stats := &Stats{BatchRecords: len(batch), LedgerSize: cube.Ledger().Size()}
	if len(batch) == 0 {
		return stats, nil
	}

	minCount := cube.MinCount()
	baseLen := db.Len()
	cellsCopied := cube.CellsCopied()

	// Exception re-mining needs every touched cell's full record set; cubes
	// loaded from snapshots carry no tids, so recover them once from the
	// base database (before the batch lands in it).
	if cfg.MineExceptions && !cube.HaveTIDs() {
		cube.RebuildTIDs(db)
	}
	haveTids := cube.HaveTIDs()

	// Batch combo accounting: every (item level, values) combination a
	// batch record maps to either names an existing cell — the same cell in
	// every cuboid of the item level, one flowgraph per path level — or is
	// an admission candidate.
	levels := cube.LevelCuboids()
	hits := make([]map[string][]int32, len(levels))
	candidates := make(map[int]map[string]*combo)
	var candOrder []*combo
	values := make([]hierarchy.NodeID, len(db.Schema.Dims))
	for i := range batch {
		tid := int32(baseLen + i)
		for li := range levels {
			ck := core.CellKey(levels[li].Item.ValuesOf(db.Schema, batch[i].Dims, values))
			if cell, _ := cube.Lookup(levels[li].Specs[0], values); cell != nil {
				if hits[li] == nil {
					hits[li] = make(map[string][]int32)
				}
				hits[li][ck] = append(hits[li][ck], tid)
				continue
			}
			if candidates[li] == nil {
				candidates[li] = make(map[string]*combo)
			}
			c := candidates[li][ck]
			if c == nil {
				c = &combo{levelIdx: li, values: append([]hierarchy.NodeID(nil), values...)}
				candidates[li][ck] = c
				candOrder = append(candOrder, c)
			}
			c.count++
			c.tids = append(c.tids, tid)
		}
	}

	// Admission: a candidate crosses δ when its base count — from the sub-δ
	// ledger, or from one restricted base scan when the cube carries none —
	// plus its batch count reaches the threshold. The ledger is maintained
	// exactly: combinations still below δ are bumped, admitted ones leave it.
	var admitted []*combo
	ledger := cube.Ledger()
	if len(candOrder) > 0 && ledger == nil {
		scanBase(db, baseLen, levels, candidates)
	}
	needBaseTids := make(map[int]map[string]*combo)
	for _, c := range candOrder {
		il := levels[c.levelIdx].Item
		var base int64
		if ledger != nil {
			base = ledger.Count(il, c.values)
		} else {
			base = int64(len(c.baseTids))
		}
		if base+c.count >= minCount {
			admitted = append(admitted, c)
			if ledger != nil {
				ledger.Remove(il, c.values)
				if base > 0 {
					if needBaseTids[c.levelIdx] == nil {
						needBaseTids[c.levelIdx] = make(map[string]*combo)
					}
					needBaseTids[c.levelIdx][core.CellKey(c.values)] = c
				}
			}
		} else if ledger != nil {
			ledger.Bump(il, c.values, c.count)
		}
	}
	// With a ledger, admitted combos with base occurrences still need their
	// base record ids for flowgraph construction: one scan restricted to
	// exactly those combinations.
	scanBase(db, baseLen, levels, needBaseTids)

	// The batch lands in the database: db is the union from here on.
	for i := range batch {
		if err := db.Append(batch[i]); err != nil {
			return nil, &BatchError{Index: i, Err: err}
		}
	}
	// Intern the batch's items in record order, mirroring a full build's
	// encode pass: item ids — and therefore mined-itemset order, and
	// therefore exception pin order — match the full build exactly.
	for i := baseLen; i < db.Len(); i++ {
		cube.Symbols.EncodeRecord(db.Records[i])
	}

	type touchedCell struct {
		specKey   string
		pathLevel int
		cell      *core.Cell
		// batchTIDs are the appended record ids that landed in the cell —
		// the re-mine derives the moved prefixes from them. Nil for a newly
		// materialized cell, all of whose records are new to it.
		batchTIDs []int32
	}
	var touched []touchedCell

	// Touched existing cells, in item-level, cuboid, cell-key order: obtain
	// this generation's copy of each and fold the new paths into its
	// flowgraph, which copies the nodes along those paths and no others.
	for li, byCell := range hits {
		cellKeys := make([]string, 0, len(byCell))
		for ck := range byCell {
			cellKeys = append(cellKeys, ck)
		}
		sort.Strings(cellKeys)
		for _, spec := range levels[li].Specs {
			specKey := spec.Key()
			for _, ck := range cellKeys {
				cell := cube.OwnedCell(specKey, ck)
				if cell == nil {
					continue
				}
				tids := byCell[ck]
				cell.Count += int64(len(tids))
				if haveTids {
					cell.SetTIDs(append(cell.TIDs(), tids...))
				}
				if cell.Graph != nil {
					before := cell.Graph.NodesCopied()
					for _, tid := range tids {
						cell.Graph.AddPath(db.Records[tid].Path)
					}
					stats.NodesCopied += cell.Graph.NodesCopied() - before
				}
				touched = append(touched, touchedCell{specKey: specKey, pathLevel: spec.PathLevel, cell: cell, batchTIDs: tids})
				stats.CellsTouched++
			}
		}
	}

	// Admitted cells: register in every cuboid sharing the item level (as
	// the build phase does for mined frequent cells) and build their
	// flowgraphs from the union record set.
	pathLevels := cube.Symbols.PathLevels()
	for _, c := range admitted {
		tids := append(append([]int32(nil), c.baseTids...), c.tids...)
		for _, spec := range levels[c.levelIdx].Specs {
			specKey := spec.Key()
			cell := cube.AdmitCell(specKey, c.values, int64(len(tids)))
			if cell == nil {
				continue
			}
			if haveTids {
				cell.SetTIDs(append([]int32(nil), tids...))
			}
			g := flowgraph.New(db.Schema.Location, pathLevels[spec.PathLevel], nil)
			for _, tid := range tids {
				g.AddPath(db.Records[tid].Path)
			}
			cell.Graph = g
			touched = append(touched, touchedCell{specKey: specKey, pathLevel: spec.PathLevel, cell: cell})
			stats.CellsAdmitted++
		}
	}

	// Exceptions: recompute exactly, per touched cell, over its union
	// records (restricted.go). A warm cell re-mines from its cached condition
	// set and the batch's records: exceptions at prefixes the batch did not
	// move are retained, and only conditions the batch made frequent are
	// mined for. A cell with nothing cached — freshly admitted, or its cache
	// dropped — is the same computation from an empty set with every record
	// counted as new, which warms its entry for the next batch.
	if cfg.MineExceptions {
		r := &reminer{cube: cube, db: db, stageTxs: make([]transact.Transaction, db.Len())}
		for _, t := range touched {
			cell := t.cell
			if cell.Graph == nil {
				continue
			}
			ck := core.CellKey(cell.Values)
			old, warm := cube.CachedConds(t.specKey, ck)
			batchTIDs := t.batchTIDs
			if !warm {
				old, batchTIDs = core.NewCondSet(nil), cell.TIDs()
			}
			moved, newConds, err := r.remine(t.pathLevel, cell, batchTIDs, old)
			if err != nil {
				return nil, err
			}
			if len(newConds) > 0 || !warm {
				all := make([][]flowgraph.StagePin, 0, len(old.Pins)+len(newConds))
				cube.SetCachedConds(t.specKey, ck, append(append(all, old.Pins...), newConds...))
			}
			if warm {
				stats.CellsReminedRestricted++
				stats.PrefixesRemined += moved
			}
			stats.ExceptionsRemined++
		}
	}

	// Redundancy frontier: every touched or admitted cell, plus every cell
	// with one of them as an item-lattice parent, is re-marked against the
	// current lattice. The frontier is found on value tuples, so only its
	// cells are decoded. Markings read only other cells' graphs — all final
	// by now — so the re-mark order is irrelevant.
	if cfg.Tau > 0 {
		touchedIDs := make(map[string]bool, len(touched))
		for _, t := range touched {
			touchedIDs[t.specKey+"|"+core.CellKey(t.cell.Values)] = true
		}
		for _, lv := range levels {
			for _, spec := range lv.Specs {
				key := spec.Key()
				tuples, _ := cube.EnumerateCellValues(spec)
				for _, values := range tuples {
					need := touchedIDs[key+"|"+core.CellKey(values)]
					if !need {
						for _, p := range cube.ParentRefs(spec, values) {
							if touchedIDs[p.Spec.Key()+"|"+core.CellKey(p.Values)] {
								need = true
								break
							}
						}
					}
					if need {
						cube.MarkCellRedundancy(spec, values, cfg.Tau)
						stats.RedundancyRemarked++
					}
				}
			}
		}
	}

	stats.LedgerSize = cube.Ledger().Size()
	stats.CellsCopied = cube.CellsCopied() - cellsCopied
	return stats, nil
}
