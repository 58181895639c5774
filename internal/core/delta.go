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
// The ownership rule. Every cuboid, cell, flowgraph node and ledger part
// carries the tag of the generation that may write it. Build and the
// snapshot decoders produce generation 0 and tag everything 0 (a lazily
// opened cube is generation 1 over a mapped generation 0); Fork returns a
// generation with the next tag that shares all of it, so whatever a
// generation holds is frozen the moment the next one is forked from it. A
// writer reaches a cell only through ownedCell, which copies the cuboid's
// cell map — the written cells over a mapped base, every cell otherwise —
// and the cell on first touch and forks the cell's flowgraph;
// flowgraph.Graph.AddPath then copies the nodes along the path it adds and
// nothing else. The symbol table is handed down the same way and copied
// before ApplyDelta first interns into it. Dropping a fork is the whole
// rollback.
//
// This file is on the immutcube allowlist: it holds that accessor, ApplyDelta
// — which writes only cells the accessor or admitCell handed it — and the
// build-phase machinery (tid recovery, the record router's cache) that runs
// on cubes no reader shares yet.

import (
	"errors"
	"fmt"
	"slices"

	"flowcube/internal/flowgraph"
	"flowcube/internal/hierarchy"
	"flowcube/internal/pathdb"
	"flowcube/internal/transact"
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
	// (0 for an empty batch to a cube that has not derived its ledger).
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
// ApplyDelta must not run concurrently with readers of cube, db, or the
// cube's symbol table. Long-lived servers patch a Fork of the served cube —
// readers of the served cube are not disturbed, and dropping the fork is
// the rollback — and swap snapshots (internal/server does). It reads the
// cube only through Lookup and value-tuple walks, so over a lazily opened
// snapshot it decodes the cells the batch reaches and their lattice
// neighbours, not the snapshot. The first call on a cube without a sub-δ
// ledger — one that was built, loaded or merged — derives it in one walk of
// the base database, which reads no cell.
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
	stats := &DeltaStats{BatchRecords: len(batch), LedgerSize: cube.ledger.size()}
	if len(batch) == 0 {
		return stats, nil
	}

	baseLen := db.Len()
	cellsCopied := cube.cellsCopied

	// The ledger is a function of the base database and δ, so a cube that
	// carries none derives it once, before the batch lands; its forks share
	// it, and this call and later ones keep it exact.
	if cube.ledger == nil {
		cube.ledger = cube.deriveLedger(db)
	}

	// Exception re-mining needs every touched cell's full record set; cubes
	// loaded from snapshots carry no tids, so recover them once from the
	// base database (before the batch lands in it).
	if cfg.MineExceptions && !cube.haveTIDs {
		cube.rebuildTIDs(db)
	}
	haveTids := cube.haveTIDs

	// Batch combo accounting: every (item level, values) combination a
	// batch record maps to either names an existing cell — the same cell in
	// every cuboid of the item level, one flowgraph per path level — or is
	// an admission candidate.
	levels := cube.levelGroups()
	router := cube.router()
	hits := make([]map[CellID]*combo, len(levels))
	candidates := make([]map[CellID]*combo, len(levels))
	var candOrder []*combo
	for i := range batch {
		tid := int32(baseLen + i)
		router.route(batch[i].Dims)
		for li := range levels {
			id, values := router.cell(li)
			cell, _ := cube.Lookup(levels[li].Specs[0], values)
			tables := candidates
			if cell != nil {
				tables = hits
			}
			if tables[li] == nil {
				tables[li] = make(map[CellID]*combo)
			}
			c := tables[li][CellID(id)]
			if c == nil {
				c = &combo{levelIdx: li, values: slices.Clone(values)}
				tables[li][CellID(id)] = c
				if cell == nil {
					candOrder = append(candOrder, c)
				}
			}
			c.count++
			c.tids = append(c.tids, tid)
		}
	}

	// Admission: a candidate crosses δ when its base count, from the sub-δ
	// ledger, plus its batch count reaches the threshold. The ledger is
	// maintained exactly: combinations still below δ are bumped, admitted
	// ones leave it.
	var admitted []*combo
	ledger := cube.ledger
	needBaseTids := make([]map[CellID]*combo, len(levels))
	for _, c := range candOrder {
		il := levels[c.levelIdx].Item
		base := ledger.count(il, c.values)
		if base+c.count < cube.minCount {
			ledger.bump(il, c.values, c.count)
			continue
		}
		admitted = append(admitted, c)
		ledger.remove(il, c.values)
		if base > 0 {
			if needBaseTids[c.levelIdx] == nil {
				needBaseTids[c.levelIdx] = make(map[CellID]*combo)
			}
			needBaseTids[c.levelIdx][MakeCellID(c.values)] = c
		}
	}
	// Admitted combos with base occurrences still need their base record
	// ids for flowgraph construction: one scan restricted to exactly those
	// combinations.
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
		if cube.sharedSymbols {
			cube.Symbols, cube.sharedSymbols = cube.Symbols.Clone(), false
		}
		for i := baseLen; i < db.Len(); i++ {
			cube.Symbols.EncodeRecord(db.Records[i])
		}
	}

	type touchedCell struct {
		spec CuboidSpec
		cell *Cell
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
		slices.SortFunc(landed, func(a, b *combo) int { return CompareCells(a.values, b.values) })
		for _, spec := range levels[li].Specs {
			for _, h := range landed {
				cell := cube.ownedCell(spec, h.values)
				if cell == nil {
					continue
				}
				tids := h.tids
				cell.Count += int64(len(tids))
				if haveTids {
					cell.tids = append(cell.tids, tids...)
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
			cell := cube.admitCell(spec, c.values, int64(len(tids)))
			if cell == nil {
				continue
			}
			if haveTids {
				cell.tids = append([]int32(nil), tids...)
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
	// records (conds.go): a warm cell re-mines at the prefixes the batch
	// moved and from the conditions the batch made frequent; a cold one —
	// freshly admitted, or its cache dropped — from an empty set with every
	// record counted as new, which warms its entry for the next batch.
	if cfg.MineExceptions {
		r := &reminer{cube: cube, db: db, stageTxs: make([]transact.Transaction, db.Len())}
		for _, t := range touched {
			if t.cell.Graph == nil {
				continue
			}
			warm := t.cell.conds != nil
			moved, err := r.remine(t.cell, t.spec.PathLevel, t.added)
			if err != nil {
				return nil, err
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
		touchedIDs := make(map[CellRefKey]bool, len(touched))
		for _, t := range touched {
			touchedIDs[CellRefKey{Spec: t.spec.Key(), ID: MakeCellID(t.cell.Values)}] = true
		}
		for _, lv := range levels {
			for _, spec := range lv.Specs {
				key := spec.Key()
				tuples, _ := cube.cuboidCellValues(spec)
				for _, values := range tuples {
					need := touchedIDs[CellRefKey{Spec: key, ID: MakeCellID(values)}]
					if !need {
						for _, p := range cube.parentRefs(spec, values) {
							if touchedIDs[CellRefKey{Spec: p.Spec.Key(), ID: MakeCellID(p.Values)}] {
								need = true
								break
							}
						}
					}
					if need {
						cube.markCellRedundancy(spec, values, cfg.Tau)
						stats.RedundancyRemarked++
					}
				}
			}
		}
	}

	stats.LedgerSize = cube.ledger.size()
	stats.CellsCopied = cube.cellsCopied - cellsCopied
	return stats, nil
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
func matchBase(router *recordRouter, db *pathdb.DB, baseLen int, wanted []map[CellID]*combo) {
	var levels []int
	for li, m := range wanted {
		if len(m) > 0 {
			levels = append(levels, li)
		}
	}
	for tid := 0; len(levels) > 0 && tid < baseLen; tid++ {
		router.route(db.Records[tid].Dims)
		for _, li := range levels {
			id, _ := router.cell(li)
			if c := wanted[li][CellID(id)]; c != nil {
				c.baseTids = append(c.baseTids, int32(tid))
			}
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
// cuboid, mapped base, cell, flowgraph node, ledger node and cached
// exception condition with the receiver by pointer, and writes
// copy-on-write through ownedCell. The receiver is not touched by anything
// done to the fork — readers keep using it, and a fork that is dropped
// leaves no trace — so the cost is the cuboid and ledger-level tables, which
// do not grow with the cells or their flowgraphs. The symbol table is
// shared too, until ApplyDelta copies it.
//
// Tags run out after 2³²−1 forks along one lineage; a cube from Build or
// Load starts a new one.
func (c *Cube) Fork() *Cube {
	f := &Cube{
		Schema:        c.Schema,
		Config:        c.Config,
		Symbols:       c.Symbols,
		Mining:        c.Mining,
		Cuboids:       make(map[string]*Cuboid, len(c.Cuboids)),
		minCount:      c.minCount,
		gen:           c.gen + 1,
		ledger:        c.ledger.fork(c.gen + 1),
		haveTIDs:      c.haveTIDs,
		sharedSymbols: true,
		compressed:    c.compressed,
		groups:        c.groups,
		routes:        c.routes,
		lazy:          c.lazy,
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
	cb := c.Cuboid(spec)
	if cb == nil || cb.owner == c.gen {
		return cb
	}
	own := &Cuboid{Spec: cb.Spec, Cells: make(map[CellID]*Cell, len(cb.Cells)+1), owner: c.gen, base: cb.base}
	for id, cell := range cb.Cells {
		own.Cells[id] = cell
	}
	c.Cuboids[spec.Key()] = own
	return own
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
// flowgraph forked (nodes shared until a path is added through them), its
// tids clamped so an append reallocates instead of growing into the older
// generation's spare capacity — and later touches return the same copy.
func (c *Cube) ownedCell(spec CuboidSpec, values []hierarchy.NodeID) *Cell {
	cb := c.ownedCuboid(spec)
	if cb == nil {
		return nil
	}
	cell, _ := cb.get(values)
	if cell == nil || cell.owner == c.gen {
		return cell
	}
	own := *cell
	own.owner = c.gen
	own.tids = cell.tids[:len(cell.tids):len(cell.tids)]
	if cell.Graph != nil {
		own.Graph = cell.Graph.Fork(c.gen)
	}
	cb.Cells[MakeCellID(values)] = &own
	c.cellsCopied++
	return &own
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

// rebuildTIDs re-derives every materialized cell's record-id list from the
// database the cube was built over (or an equal copy), using the same
// record walk as Build. Cubes loaded from snapshots do not carry tids;
// exception re-mining needs them once.
func (c *Cube) rebuildTIDs(db *pathdb.DB) {
	c.ownAllCells()
	c.assignCells(db)
}

// admitCell registers a newly-frequent cell in the spec's cuboid and
// returns it for the caller to fill in, or nil when the cuboid is not
// materialized or already holds the cell. ApplyDelta admits a combination
// into every cuboid of its item level, as the build phase does for cells
// found by mining.
func (c *Cube) admitCell(spec CuboidSpec, values []hierarchy.NodeID, count int64) *Cell {
	cb := c.ownedCuboid(spec)
	if cb == nil {
		return nil
	}
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
