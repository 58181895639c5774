package core

// Delta maintenance (DESIGN.md §9). The paper builds its flowcubes once
// over a static path database and defers incremental update to future work
// (§7); ApplyDelta supplies that step: it takes a cube, the database it was
// built over, and a batch of new records, and updates only the affected
// state — the touched cells' counts, flowgraphs, exceptions and redundancy
// frontier, plus any sub-δ combination the batch pushes over the iceberg
// threshold.
//
// Delta application is exact: applying a batch and saving the cube yields
// the same snapshot bytes as a full Build over the union database with the
// same configuration. That holds because, with an absolute iceberg
// threshold, appends move every support monotonically upward — untouched
// cells are provably unchanged, and everything a batch can change is
// reachable from the batch's own records: the cells they land in, the
// below-threshold combinations they push over δ (decided by the sub-δ
// ledger, which the first append derives from the base database and every
// later one keeps exact), and the item-lattice children of those cells for
// redundancy re-marking.
// Exactness therefore requires an N-independent configuration: an absolute
// Config.MinCount (a fractional MinSupport re-resolves against the grown
// database, silently changing δ), and a cube Compress has not thinned.
//
// The ownership rule. Every cuboid and cell carries the tag of the
// generation that may write it. Build and the snapshot decoders produce
// generation 0 and tag everything 0 (a lazily opened cube is generation 1
// over a mapped generation 0); Fork returns a generation with the next tag
// that shares all of it, so whatever a generation holds is frozen the
// moment the next one is forked from it. A writer reaches a cell only
// through ownedCell, which copies the cuboid's cell map — the written cells
// over a mapped base, every cell otherwise — and the cell on first touch
// (ApplyDelta's parallel fold owns the cuboids first, and each job then
// copies its own cuboid's cells through ownedCell's second half, ownCell).
// A graph needs no tag: it rests, its columns never change, and the copy
// shares it until ApplyDelta gives the copy a new graph (foldBatch).
// Dropping a fork is the whole rollback. The sub-δ ledger —
// the sub-δ counts and, on a cube that mines exceptions, each cell's record
// ids, the stage transactions and the symbol table they are interned into —
// is outside the rule: forks share one ledger, which an append claims for
// the length of its base database and extends in place (ledger.go), so a
// fork advances it for the rest of its lineage, and a cube whose claim
// fails — its ledger advanced by a sibling, or left claimed by a dropped
// fold — pays one derivation on its next append.
//
// This file is on the immutcube allowlist: it holds that accessor, ApplyDelta
// — which writes only cells the accessor or admitCell handed it — and the
// record router's cache, set on cubes no reader shares yet.

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"flowcube/internal/flowgraph"
	"flowcube/internal/hierarchy"
	"flowcube/internal/pathdb"
)

// Typed ApplyDelta failures, testable with errors.Is / errors.As. Their
// texts keep the "incr:" prefix of the package that first carried them:
// HTTP error bodies quote them.
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
	// ErrCompressed reports a cube Compress dropped redundant cells from: a
	// dropped cell reads as a sub-δ combination, and an append would admit
	// it again from the batch alone.
	ErrCompressed = errors.New("core: delta maintenance cannot append to a compressed cube")
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

// DeltaStats reports what one ApplyDelta call did.
type DeltaStats struct {
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
	// proportional to the batch (warm condition cache; see conds.go) rather
	// than from an empty condition set over all of their records.
	CellsReminedRestricted int `json:"cells_remined_restricted"`
	// PrefixesRemined is the total number of moved flowgraph prefixes
	// (nodes on a batch path) those warm cells re-aggregated.
	PrefixesRemined int `json:"prefixes_remined"`
	// RedundancyRemarked is the number of cells re-marked for redundancy
	// (touched cells plus their item-lattice children; 0 unless Tau > 0).
	RedundancyRemarked int `json:"redundancy_remarked"`
	// LedgerSize is the number of sub-δ ledger entries after the delta
	// (0 for an empty batch to a cube whose ledger is not derived yet or
	// does not count the database: its next non-empty append derives it).
	LedgerSize int `json:"ledger_size"`
	// CellsCopied is the number of cells this call copied from the
	// generation the cube was forked from: the cells it wrote, less any an
	// earlier call on the same fork already copied (0 on a cube patched in
	// place).
	CellsCopied int `json:"cells_copied"`
}

// ApplyDelta appends a batch of records to the cube and its database,
// updating only the affected state. On success db holds the union database
// (base records followed by the batch) and the cube is exactly what a full
// Build over that union with the same configuration would produce — byte
// identical under Save.
//
// The batch is validated atomically up front: any invalid record rejects
// the whole call with a *BatchError before anything changes. The cube must
// carry an absolute iceberg threshold (Config.MinCount > 0) and must not
// have been compressed; see the file comment for why.
//
// ApplyDelta must not run concurrently with readers of cube or db.
// Long-lived servers patch a Fork of the served cube — readers of the
// served cube are not disturbed, and dropping the fork is the rollback —
// and swap snapshots (internal/server does). It reads the
// cube only through Lookup and value-tuple walks, so over a lazily opened
// snapshot it decodes the cells the batch reaches and their lattice
// neighbours, not the snapshot. The first call on a cube without a sub-δ
// ledger over db — one that was built, loaded or merged, or whose shared
// ledger a sibling fork advanced or a dropped fold left claimed — derives
// it, with the record ids, stage transactions and symbol table exception
// re-mining reads, in one walk of the base database, which reads no cell.
// Sibling forks of one cube may append concurrently, each over its own
// database.
func ApplyDelta(cube *Cube, db *pathdb.DB, batch []pathdb.Record) (*DeltaStats, error) {
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
	if cube.compressed {
		return nil, ErrCompressed
	}
	if err := cube.CheckSchema(db.Schema); err != nil {
		return nil, err
	}
	for i := range batch {
		if err := db.Schema.ValidateRecord(batch[i]); err != nil {
			return nil, &BatchError{Index: i, Err: err}
		}
	}
	stats := &DeltaStats{BatchRecords: len(batch)}
	baseLen := db.Len()
	if len(batch) == 0 {
		if cube.ledger.claim(baseLen) {
			stats.LedgerSize = cube.ledger.size()
			cube.ledger.release(baseLen)
		}
		return stats, nil
	}
	cellsCopied := cube.cellsCopied

	// The ledger is a function of the base database and δ, so a cube whose
	// shared ledger does not count db, or is held, derives its own before
	// the batch lands; this call keeps it exact and hands it on to the
	// cube's forks when it succeeds.
	ledger := cube.ledger
	if !ledger.claim(baseLen) {
		ledger = cube.deriveLedger(db)
		cube.ledger = ledger
	}

	// Batch combo accounting: every (item level, values) combination a
	// batch record maps to either names an existing cell — the same cell in
	// every cuboid of the item level, one flowgraph per path level — or is
	// an admission candidate.
	levels := cube.levelGroups()
	combos := cube.routeBatch(batch, baseLen)

	// Admission: a candidate crosses δ when its base count, from the sub-δ
	// ledger, plus its batch count reaches the threshold. The ledger is
	// maintained exactly: combinations still below δ are bumped, admitted
	// ones leave it.
	counts := make([]map[CellID]int64, len(levels))
	var landed, needBase []*combo
	for k := range combos {
		c := &combos[k]
		if c.hit {
			landed = append(landed, c)
			continue
		}
		if counts[c.levelIdx] == nil {
			counts[c.levelIdx] = ledger.levels[levels[c.levelIdx].Item.Key()]
		}
		base := counts[c.levelIdx][c.id]
		if base+int64(len(c.tids)) < cube.minCount {
			counts[c.levelIdx][c.id] = base + int64(len(c.tids))
			continue
		}
		landed = append(landed, c)
		delete(counts[c.levelIdx], c.id)
		c.admit = true
		if base > 0 {
			needBase = append(needBase, c)
		}
	}
	// Admitted combos with base occurrences still need their base record
	// ids for flowgraph construction: one scan restricted to exactly those
	// combinations.
	cube.matchBase(db, baseLen, needBase)

	// The batch lands in the database: db is the union from here on.
	for i := range batch {
		if err := db.Append(batch[i]); err != nil {
			return nil, &BatchError{Index: i, Err: err}
		}
	}
	// The batch's stage transactions, on one goroutine before any re-mine
	// reads them: encoding may intern into the ledger's table, which the
	// claim lets this call extend in place.
	if ledger.ids != nil {
		for _, rec := range batch {
			ledger.stages = append(ledger.stages, ledger.syms.EncodeStages(rec.Path))
		}
	}

	// Fold and admit, one job per cuboid of every item level the batch
	// landed in: the job copies the cells it writes out of the generation
	// the cube was forked from and gives each a new flowgraph holding the
	// new paths too.
	touched := cube.foldBatch(db, baseLen, landed, ledger, stats)

	// Exceptions: recompute exactly, per touched cell, over its union
	// records (conds.go): a warm cell re-mines at the prefixes the batch
	// moved and from the conditions the batch made frequent; a cold one —
	// freshly admitted, or its cache dropped — from an empty set with every
	// record counted as new, which warms its entry for the next batch.
	if cfg.MineExceptions {
		if err := cube.remineTouched(db, ledger, touched, stats); err != nil {
			return nil, err
		}
	}

	// Redundancy frontier: every touched or admitted cell, plus every cell
	// with one of them as an item-lattice parent, is re-marked against the
	// current lattice — whose graphs are all final by now, so the markings
	// are independent of each other and of their order.
	if cfg.Tau > 0 {
		stats.RedundancyRemarked = cube.remarkFrontier(touched, cfg.Tau)
	}

	stats.LedgerSize = ledger.size()
	stats.CellsCopied = cube.cellsCopied - cellsCopied
	ledger.release(db.Len())
	return stats, nil
}

// combo accumulates one (item level, values) combination observed in a
// batch: an existing cell the batch landed in, or a below-threshold
// admission candidate.
type combo struct {
	levelIdx int
	id       CellID
	values   []hierarchy.NodeID
	// hit marks an existing cell, admit a candidate the batch pushed over δ.
	hit, admit bool
	tids       []int32 // batch record ids, ascending
	baseTids   []int32 // base record ids, ascending (filled by matchBase)
}

// routeBatch maps every batch record, numbered from baseLen, to its
// combination at every item level: one combo per distinct (item level,
// values), in order of first occurrence, with its batch record ids. The
// combos, their values and their ids each live in one arena sized for the
// batch, and a combo is looked up in the cube once, by value tuple, which
// decodes no cell.
func (c *Cube) routeBatch(batch []pathdb.Record, baseLen int) []combo {
	levels, router := c.levelGroups(), c.router()
	m, n := len(c.Schema.Dims), len(batch)*len(levels)
	combos := make([]combo, 0, n)
	values := make([]hierarchy.NodeID, 0, n*m)
	at := make([]int32, n) // the combo of record i at item level li is at[i*len(levels)+li]
	counts := make([]int, 0, n)
	index := make(map[string]int32, n)
	var key []byte
	for i := range batch {
		router.route(batch[i].Dims)
		for li := range levels {
			id, vals := router.cell(li)
			key = append(binary.AppendUvarint(key[:0], uint64(li)), id...)
			k, ok := index[string(key)]
			if !ok {
				k = int32(len(combos))
				s := string(key)
				index[s] = k
				e, cell, _ := c.Cuboid(levels[li].Specs[0]).find(vals)
				values = append(values, vals...)
				combos = append(combos, combo{levelIdx: li, id: CellID(s[len(s)-len(id):]),
					values: values[len(values)-m : len(values) : len(values)], hit: e != nil || cell != nil})
				counts = append(counts, 0)
			}
			counts[k]++
			at[i*len(levels)+li] = k
		}
	}
	tids := make([]int32, n)
	for k := range combos {
		combos[k].tids, tids = tids[:0:counts[k]], tids[counts[k]:]
	}
	for i, k := range at {
		c := &combos[k]
		c.tids = append(c.tids, int32(baseLen+i/len(levels)))
	}
	return combos
}

// touchedCell is a cell an append wrote: this generation's copy of an
// existing cell the batch landed in, or a cell it admitted.
type touchedCell struct {
	spec CuboidSpec
	cell *Cell
	// prev is the cell's graph before the batch was folded into it, nil
	// for a newly materialized cell.
	prev *flowgraph.Graph
	// added counts the appended records that landed in the cell: the last
	// added of its tids. A newly materialized cell's are all new.
	added int
}

// foldBatch writes the landed combos — hits and admissions — into every
// cuboid of their item levels, spread across Config.Workers one cuboid per
// job, and returns the cells it wrote in item-level, cuboid, CompareCells
// order, counting them into stats. On one goroutine first: the batch's
// paths are aggregated once per path level, the ledger's record ids, when
// it keeps them, gain each item level's batch ids once, and every cuboid a
// job writes is made this generation's own in the cuboid table, so a job
// writes only its own cuboid — its cell map, which it copies first, and its
// cells.
//
// A hit's new flowgraph is its graph grown by its batch paths, an admitted
// cell's an empty graph grown by its union records' paths.
func (c *Cube) foldBatch(db *pathdb.DB, baseLen int, landed []*combo, ledger *deltaLedger, stats *DeltaStats) []touchedCell {
	slices.SortFunc(landed, func(a, b *combo) int {
		return cmp.Or(cmp.Compare(a.levelIdx, b.levelIdx), CompareCells(a.values, b.values))
	})
	levels := c.levelGroups()
	pathLevels := c.PathLevels()
	aggs := make([]*aggregated, len(pathLevels))
	type job struct {
		cb, from *Cuboid
		combos   []*combo
	}
	var jobs []job
	for lo := 0; lo < len(landed); {
		li := landed[lo].levelIdx
		hi := lo + 1
		for hi < len(landed) && landed[hi].levelIdx == li {
			hi++
		}
		for _, spec := range levels[li].Specs {
			if cb, from := c.ownCuboid(spec); cb != nil {
				jobs = append(jobs, job{cb, from, landed[lo:hi]})
				if aggs[spec.PathLevel] == nil {
					agg := aggregateFrom(db, pathLevels[spec.PathLevel], baseLen)
					aggs[spec.PathLevel] = &agg
				}
			}
		}
		if ids := ledger.ids[levels[li].Item.Key()]; ids != nil {
			for _, cm := range landed[lo:hi] {
				if cm.admit {
					ids[cm.id] = append(cm.baseTids, cm.tids...)
				} else {
					ids[cm.id] = append(ids[cm.id], cm.tids...)
				}
			}
		}
		lo = hi
	}

	type result struct {
		touched               []touchedCell
		hits, admitted, cells int
	}
	results := make([]result, len(jobs))
	c.forEach(len(jobs), func(j int) {
		cb, r := jobs[j].cb, &results[j]
		if jobs[j].from != nil {
			cb.copyCells(jobs[j].from)
		}
		level, agg := pathLevels[cb.Spec.PathLevel], aggs[cb.Spec.PathLevel]
		r.touched = make([]touchedCell, 0, len(jobs[j].combos))
		var stages pathdb.Path
		var batch []pathdb.Path
		// paths aggregates base records' paths from db, batch records' from agg.
		paths := func(base, tids []int32) []pathdb.Path {
			batch, stages = batch[:0], stages[:0]
			for _, tid := range base {
				lo := len(stages)
				stages = pathdb.AppendAggregated(stages, db.Records[tid].Path, level, nil)
				batch = append(batch, stages[lo:len(stages):len(stages)])
			}
			for _, tid := range tids {
				batch = append(batch, agg.path(tid))
			}
			return batch
		}
		for _, cm := range jobs[j].combos {
			if cm.hit {
				cell, copied := c.ownCell(cb, cm.values)
				if cell == nil {
					continue
				}
				if copied {
					r.cells++
				}
				cell.Count += int64(len(cm.tids))
				prev := cell.Graph
				if prev != nil {
					cell.Graph = flowgraph.FoldPaths(prev, paths(nil, cm.tids))
				}
				r.touched = append(r.touched, touchedCell{spec: cb.Spec, cell: cell, prev: prev, added: len(cm.tids)})
				r.hits++
				continue
			}
			// An admitted cell, its flowgraph built from the union record set.
			n := len(cm.baseTids) + len(cm.tids)
			cell := c.admitCell(cb, cm.values, int64(n))
			if cell == nil {
				continue
			}
			cell.Graph = flowgraph.FoldPaths(flowgraph.New(db.Schema.Location, level), paths(cm.baseTids, cm.tids))
			r.touched = append(r.touched, touchedCell{spec: cb.Spec, cell: cell, added: n})
			r.admitted++
		}
	})

	var touched []touchedCell
	for _, r := range results {
		touched = append(touched, r.touched...)
		stats.CellsTouched += r.hits
		stats.CellsAdmitted += r.admitted
		c.cellsCopied += r.cells
	}
	return touched
}

// remineTouched re-mines the exceptions of every touched cell with a
// flowgraph, spread across Config.Workers one cell per job, largest first,
// and counts them into stats. The jobs read the record ids and stage
// transactions the claimed ledger holds, complete before they start, and
// each writes only its own cell's exceptions and condition cache.
func (c *Cube) remineTouched(db *pathdb.DB, ledger *deltaLedger, touched []touchedCell, stats *DeltaStats) error {
	r := &reminer{cube: c, db: db, stageTxs: ledger.stages, syms: ledger.syms}
	type job struct {
		touchedCell
		ids []int32
	}
	var jobs []job
	for _, t := range touched {
		if t.cell.Graph != nil {
			jobs = append(jobs, job{t, ledger.ids[t.spec.Item.Key()][MakeCellID(t.cell.Values)]})
		}
	}
	slices.SortStableFunc(jobs, func(a, b job) int { return cmp.Compare(len(b.ids), len(a.ids)) })
	type result struct {
		warm  bool
		moved int
		err   error
	}
	results := make([]result, len(jobs))
	c.forEach(len(jobs), func(i int) {
		t, res := jobs[i], &results[i]
		res.warm = t.cell.conds != nil
		res.moved, res.err = r.remine(t.cell, t.prev, t.spec.PathLevel, t.ids, r.paths(t.spec.PathLevel, t.ids), t.added)
	})
	for _, res := range results {
		if res.err != nil {
			return res.err
		}
		if res.warm {
			stats.CellsReminedRestricted++
			stats.PrefixesRemined += res.moved
		}
		stats.ExceptionsRemined++
	}
	return nil
}

// remarkFrontier re-marks the redundancy of the touched cells' frontier
// (redundancyFrontier) against the current lattice and returns how many
// cells it re-marked. The markings are measured across Config.Workers, one
// cell per job, reading only graphs; then, on one goroutine, each cell
// whose marking changed is copied into this generation and written — a
// cell whose marking holds is left shared.
func (c *Cube) remarkFrontier(touched []touchedCell, tau float64) int {
	frontier := c.redundancyFrontier(touched)
	type result struct {
		cell *Cell
		sim  float64
	}
	results := make([]result, len(frontier))
	c.forEach(len(frontier), func(i int) {
		f := frontier[i]
		if cell, _ := c.Lookup(f.Spec, f.Values); cell != nil && cell.Graph != nil {
			results[i] = result{cell, c.parentSimilarity(f.Spec, cell)}
		}
	})
	for i, res := range results {
		if res.cell == nil {
			continue
		}
		redundant := redundantAt(res.sim, tau)
		if math.Float64bits(res.cell.Similarity) == math.Float64bits(res.sim) && res.cell.Redundant == redundant {
			continue
		}
		cell := c.ownedCell(frontier[i].Spec, frontier[i].Values)
		cell.Similarity, cell.Redundant = res.sim, redundant
	}
	return len(frontier)
}

// redundancyFrontier lists, in item-level, cuboid and CompareCells order,
// the cells whose redundancy marking the touched cells can change: the
// touched cells and every cell with one of them as an item-lattice parent.
// It walks value tuples, so a mapped base decodes none of its cells for it.
func (c *Cube) redundancyFrontier(touched []touchedCell) []CellRef {
	sets := make(map[string]map[CellID]bool)
	for _, t := range touched {
		key := t.spec.Key()
		if sets[key] == nil {
			sets[key] = make(map[CellID]bool)
		}
		sets[key][MakeCellID(t.cell.Values)] = true
	}
	type parent struct {
		item ItemLevel
		set  map[CellID]bool
	}
	var out []CellRef
	var parents []parent
	var id []byte
	up := make([]hierarchy.NodeID, len(c.Schema.Dims))
	for _, lv := range c.levelGroups() {
		for _, spec := range lv.Specs {
			self := sets[spec.Key()]
			parents = parents[:0]
			for d, l := range spec.Item {
				if l == 0 {
					continue
				}
				p := CuboidSpec{Item: c.rollUpLevel(spec.Item, d), PathLevel: spec.PathLevel}
				if set := sets[p.Key()]; set != nil {
					parents = append(parents, parent{p.Item, set})
				}
			}
			if self == nil && len(parents) == 0 {
				continue
			}
			_ = c.Cuboid(spec).each(func(e *dirEntry, _ *Cell) error {
				id = appendCellID(id[:0], e.values)
				need := self[CellID(id)]
				for _, p := range parents {
					if need {
						break
					}
					id = appendCellID(id[:0], c.generalize(up, spec.Item, p.item, e.values))
					need = p.set[CellID(id)]
				}
				if need {
					out = append(out, CellRef{Spec: spec, Values: e.values})
				}
				return nil
			})
		}
	}
	return out
}

// ownCell is ownedCell within a cuboid this generation owns: it reports
// whether it copied the cell, for the caller to count, and writes nothing
// but the cuboid's cell map and the copy.
func (c *Cube) ownCell(cb *Cuboid, values []hierarchy.NodeID) (*Cell, bool) {
	cell, _ := cb.get(values)
	if cell == nil || cell.owner == c.gen {
		return cell, false
	}
	own := *cell
	own.owner = c.gen
	cb.Cells[MakeCellID(values)] = &own
	return &own, true
}

// matchBase appends to every combo the ids of the base records that map
// to it, ascending: walkRecords fills one list per combo per chunk, and the
// lists join in chunk order.
func (c *Cube) matchBase(db *pathdb.DB, baseLen int, combos []*combo) {
	if len(combos) == 0 {
		return
	}
	// wanted maps item-level index → cell → index into combos.
	wanted := make([]map[CellID]int, len(c.levelGroups()))
	var levels []int
	for k, cm := range combos {
		if wanted[cm.levelIdx] == nil {
			wanted[cm.levelIdx] = make(map[CellID]int)
			levels = append(levels, cm.levelIdx)
		}
		wanted[cm.levelIdx][cm.id] = k
	}
	found := walkRecords(c, db.Records[:baseLen], func() [][]int32 {
		return make([][]int32, len(combos))
	}, func(tids [][]int32, r *recordRouter, tid int) {
		for _, li := range levels {
			id, _ := r.cell(li)
			if k, ok := wanted[li][CellID(id)]; ok {
				tids[k] = append(tids[k], int32(tid))
			}
		}
	})
	for k, cm := range combos {
		for _, tids := range found {
			cm.baseTids = append(cm.baseTids, tids[k]...)
		}
	}
}

// CheckSchema reports, as an error wrapping ErrSchemaMismatch, the first
// way a database schema differs from the cube's, or nil. Cubes loaded from
// snapshots reconstruct their schema, so pointer identity is too strict;
// the check is structural: the location hierarchy node for node (name and
// parent, so paths name the same locations), then every item dimension's
// name and size — records of such a schema use the cube's node-id space,
// which is all delta application and cell naming read.
func (c *Cube) CheckSchema(s *pathdb.Schema) error {
	if s == c.Schema {
		return nil
	}
	mismatch := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrSchemaMismatch, fmt.Sprintf(format, args...))
	}
	a, b := s.Location, c.Schema.Location
	if a.Dimension() != b.Dimension() || a.Len() != b.Len() {
		return mismatch("location hierarchy %q has %d nodes, the cube's %q %d", a.Dimension(), a.Len(), b.Dimension(), b.Len())
	}
	for id := hierarchy.NodeID(1); int(id) < a.Len(); id++ {
		if a.Name(id) != b.Name(id) || a.Parent(id) != b.Parent(id) {
			return mismatch("location %d is %q under %d, the cube's %q under %d", id, a.Name(id), a.Parent(id), b.Name(id), b.Parent(id))
		}
	}
	if len(s.Dims) != len(c.Schema.Dims) {
		return mismatch("%d dimensions, the cube has %d", len(s.Dims), len(c.Schema.Dims))
	}
	for i, d := range s.Dims {
		if cd := c.Schema.Dims[i]; d.Dimension() != cd.Dimension() || d.Len() != cd.Len() {
			return mismatch("dimension %d is %q of %d nodes, the cube's %q of %d", i, d.Dimension(), d.Len(), cd.Dimension(), cd.Len())
		}
	}
	return nil
}

// Fork returns the cube's next generation: a cube that shares every
// cuboid, mapped base, cell, flowgraph and cached exception
// condition with the receiver by pointer, and writes copy-on-write through
// ownedCell. Nothing the receiver saves or answers is touched by anything
// done to the fork — readers keep using it, and a fork that is dropped
// leaves no trace in them — so the cost is the cuboid table, which does
// not grow with the cells or their flowgraphs. The sub-δ ledger is shared
// too, with the record ids, stage transactions and symbol table it keeps:
// the pointer is copied, and the fork's first append claims and extends it
// (ledger.go), which leaves the receiver's next append to derive its own.
//
// Tags run out after 2³²−1 forks along one lineage; a cube from Build or
// Load starts a new one.
func (c *Cube) Fork() *Cube {
	f := &Cube{
		Schema:     c.Schema,
		Config:     c.Config,
		Mining:     c.Mining,
		Cuboids:    make(map[string]*Cuboid, len(c.Cuboids)),
		minCount:   c.minCount,
		gen:        c.gen + 1,
		ledger:     c.ledger,
		compressed: c.compressed,
		groups:     c.groups,
		routes:     c.routes,
		lazy:       c.lazy,
	}
	for key, cb := range c.Cuboids {
		f.Cuboids[key] = cb
	}
	f.order.Store(c.order.Load())
	return f
}

// ownedCuboid returns the spec's cuboid with a cell map this generation
// may write, copying the map (not the cells, nor the base under it) on
// first touch; nil when the cuboid is not materialized.
func (c *Cube) ownedCuboid(spec CuboidSpec) *Cuboid {
	cb, from := c.ownCuboid(spec)
	if from != nil {
		cb.copyCells(from)
	}
	return cb
}

// ownCuboid is ownedCuboid's first half: it puts this generation's own
// cuboid for the spec into the cuboid table and returns it, with the
// cuboid whose cell map it must still copy (copyCells) before anything
// reads it — nil when the cuboid already was this generation's. ApplyDelta's
// fold owns every cuboid it writes on one goroutine and lets each job copy
// its own cuboid's map.
func (c *Cube) ownCuboid(spec CuboidSpec) (cb, from *Cuboid) {
	cb = c.Cuboid(spec)
	if cb == nil || cb.owner == c.gen {
		return cb, nil
	}
	own := &Cuboid{Spec: cb.Spec, owner: c.gen, base: cb.base}
	c.Cuboids[spec.Key()] = own
	return own, cb
}

// copyCells gives cb a copy of from's cell map, with room for one more
// cell.
func (cb *Cuboid) copyCells(from *Cuboid) {
	cb.Cells = make(map[CellID]*Cell, len(from.Cells)+1)
	for id, cell := range from.Cells {
		cb.Cells[id] = cell
	}
}

// remove deletes a cell: from the map, or over a base by a nil entry that
// hides the base cell.
func (cb *Cuboid) remove(id CellID) {
	if cb.base == nil {
		delete(cb.Cells, id)
		return
	}
	cb.Cells[id] = nil
}

// ownedCell returns the spec's cell of these values as this generation may
// write it, or nil when there is none. It is the only way a writer reaches
// a cell: the first touch in a generation copies the cuboid's cell map,
// then the cell — decoded first when only the mapped base holds it — its
// flowgraph forked (nodes shared until a path is added through them) — and
// later touches return the same copy.
func (c *Cube) ownedCell(spec CuboidSpec, values []hierarchy.NodeID) *Cell {
	cb := c.ownedCuboid(spec)
	if cb == nil {
		return nil
	}
	cell, copied := c.ownCell(cb, values)
	if copied {
		c.cellsCopied++
	}
	return cell
}

// ownAllCells makes every materialized cell this generation's own, for the
// mutators that rewrite the whole cube: afterwards Cells holds every cell.
func (c *Cube) ownAllCells() {
	for _, cb := range c.Cuboids {
		var cells [][]hierarchy.NodeID
		_ = cb.each(func(e *dirEntry, _ *Cell) error {
			cells = append(cells, e.values)
			return nil
		})
		for _, values := range cells {
			c.ownedCell(cb.Spec, values)
		}
	}
}

// levelGroup gathers the materialized cuboids that share one item level
// (they hold the same cells, one flowgraph per path level).
type levelGroup struct {
	Item ItemLevel
	// Specs are the cuboids' specs in ascending key order.
	Specs []CuboidSpec
}

// levelGroups returns the materialized cuboids grouped by item level, in
// ascending cuboid-key order (cuboids of one item level share the key
// prefix "item@", so they sort next to each other). The grouping depends
// only on which cuboids are materialized, so it is computed once and handed
// down to forks; callers must not modify it.
func (c *Cube) levelGroups() []levelGroup {
	if c.groups == nil {
		var out []levelGroup
		for _, spec := range c.MaterializedSpecs() {
			if n := len(out); n == 0 || out[n-1].Item.Key() != spec.Item.Key() {
				out = append(out, levelGroup{Item: spec.Item})
			}
			last := &out[len(out)-1]
			last.Specs = append(last.Specs, spec)
		}
		c.groups = out
	}
	return c.groups
}

// router returns a record router over the cube's item levels, numbered as
// levelGroups numbers them. Its fixed part is computed once and handed
// down to forks like levelGroups.
func (c *Cube) router() *recordRouter {
	if c.routes == nil {
		c.routes = newRoutes(c.Schema, c.levelGroups())
	}
	m := len(c.Schema.Dims)
	r := &recordRouter{routes: c.routes, anc: make([][]hierarchy.NodeID, m), values: make([]hierarchy.NodeID, m)}
	for d, levels := range r.dimLevels {
		r.anc[d] = make([]hierarchy.NodeID, len(levels))
	}
	return r
}

// admitCell registers a newly-frequent cell in a cuboid this generation
// owns and returns it for the caller to fill in, or nil when the cuboid
// already holds the cell. ApplyDelta admits a combination into every cuboid
// of its item level, as the build phase does for cells found by mining.
func (c *Cube) admitCell(cb *Cuboid, values []hierarchy.NodeID, count int64) *Cell {
	if e, cell, _ := cb.find(values); e != nil || cell != nil {
		return nil
	}
	cell := &Cell{
		Values:     append([]hierarchy.NodeID(nil), values...),
		Count:      count,
		Similarity: SimilarityUnknown,
		owner:      c.gen,
	}
	cb.Cells[MakeCellID(values)] = cell
	return cell
}
