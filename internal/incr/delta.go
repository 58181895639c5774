package incr

// Delta application: the writes to core.Cube state live in this file, which
// internal/lint's immutcube analyzer allowlists as a legitimate writer —
// ApplyDelta writes only cells it obtained from core.Cube.OwnedCell or
// AdmitCell, i.e. cells of the generation the caller handed it: a fresh
// build patched in place, or a core.Cube.Fork of the cube being served (the
// server's append path), whose untouched cells and flowgraph nodes stay
// shared with the served cube.

import (
	"slices"

	"flowcube/internal/core"
	"flowcube/internal/flowgraph"
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
	router := cube.RecordRouter()
	hits := make([]map[core.CellID]*combo, len(levels))
	candidates := make([]map[core.CellID]*combo, len(levels))
	var candOrder []*combo
	for i := range batch {
		tid := int32(baseLen + i)
		router.Route(batch[i].Dims)
		for li := range levels {
			id, values := router.Cell(li)
			cell, _ := cube.Lookup(levels[li].Specs[0], values)
			tables := candidates
			if cell != nil {
				tables = hits
			}
			if tables[li] == nil {
				tables[li] = make(map[core.CellID]*combo)
			}
			c := tables[li][core.CellID(id)]
			if c == nil {
				c = &combo{levelIdx: li, values: slices.Clone(values)}
				tables[li][core.CellID(id)] = c
				if cell == nil {
					candOrder = append(candOrder, c)
				}
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
		matchBase(router, db, baseLen, candidates)
	}
	needBaseTids := make([]map[core.CellID]*combo, len(levels))
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
						needBaseTids[c.levelIdx] = make(map[core.CellID]*combo)
					}
					needBaseTids[c.levelIdx][core.MakeCellID(c.values)] = c
				}
			}
		} else if ledger != nil {
			ledger.Bump(il, c.values, c.count)
		}
	}
	// With a ledger, admitted combos with base occurrences still need their
	// base record ids for flowgraph construction: one scan restricted to
	// exactly those combinations.
	matchBase(router, db, baseLen, needBaseTids)

	// The batch lands in the database: db is the union from here on.
	for i := range batch {
		if err := db.Append(batch[i]); err != nil {
			return nil, &BatchError{Index: i, Err: err}
		}
	}
	// Intern the batch's items in record order, mirroring a full build's
	// encode pass: item ids — and therefore mined-itemset order, and
	// therefore exception pin order — match the full build exactly. Nothing
	// else reads item ids after a build, so a cube without exceptions keeps
	// sharing the table of the generation it was forked from.
	if cfg.MineExceptions {
		syms := cube.OwnedSymbols()
		for i := baseLen; i < db.Len(); i++ {
			syms.EncodeRecord(db.Records[i])
		}
	}

	type touchedCell struct {
		spec core.CuboidSpec
		cell *core.Cell
		// added counts the appended records that landed in the cell: the
		// last added of its tids. A newly materialized cell's are all new.
		added int
	}
	var touched []touchedCell

	// Touched existing cells, in item-level, cuboid, CompareCells order:
	// obtain this generation's copy of each and fold the new paths into its
	// flowgraph, which copies the nodes along those paths and no others.
	for li, byCell := range hits {
		landed := make([]*combo, 0, len(byCell))
		for _, h := range byCell {
			landed = append(landed, h)
		}
		slices.SortFunc(landed, func(a, b *combo) int { return core.CompareCells(a.values, b.values) })
		for _, spec := range levels[li].Specs {
			for _, h := range landed {
				cell := cube.OwnedCell(spec, h.values)
				if cell == nil {
					continue
				}
				tids := h.tids
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
				touched = append(touched, touchedCell{spec: spec, cell: cell, added: len(tids)})
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
			cell := cube.AdmitCell(spec, c.values, int64(len(tids)))
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
			touched = append(touched, touchedCell{spec: spec, cell: cell, added: len(tids)})
			stats.CellsAdmitted++
		}
	}

	// Exceptions: recompute exactly, per touched cell, over its union
	// records. A warm cell re-mines from its cached condition set and the
	// batch's records: exceptions at prefixes the batch did not move are
	// kept, and only conditions the batch made frequent (restricted.go) are
	// new. A cell with nothing cached — freshly admitted, or its cache
	// dropped — is the same computation from an empty set with every record
	// counted as new, which warms its entry for the next batch.
	if cfg.MineExceptions {
		r := &reminer{cube: cube, db: db, stageTxs: make([]transact.Transaction, db.Len())}
		for _, t := range touched {
			cell := t.cell
			if cell.Graph == nil {
				continue
			}
			// A cold cell re-mines every record as new, so every record is
			// in the batch its new conditions are mined from.
			old, warm := cell.CachedConds()
			tids, batch := cell.TIDs(), cell.TIDs()
			if warm {
				batch = tids[len(tids)-t.added:]
			}
			fresh, err := r.newConds(t.spec.PathLevel, tids, batch, old)
			if err != nil {
				return nil, err
			}
			moved := cube.RemineCell(cell, db, t.added, fresh)
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
		touchedIDs := make(map[core.CellRefKey]bool, len(touched))
		for _, t := range touched {
			touchedIDs[core.CellRefKey{Spec: t.spec.Key(), ID: core.MakeCellID(t.cell.Values)}] = true
		}
		for _, lv := range levels {
			for _, spec := range lv.Specs {
				key := spec.Key()
				tuples, _ := cube.EnumerateCellValues(spec)
				for _, values := range tuples {
					need := touchedIDs[core.CellRefKey{Spec: key, ID: core.MakeCellID(values)}]
					if !need {
						for _, p := range cube.ParentRefs(spec, values) {
							if touchedIDs[core.CellRefKey{Spec: p.Spec.Key(), ID: core.MakeCellID(p.Values)}] {
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
