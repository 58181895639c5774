package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"flowcube/internal/flowgraph"
	"flowcube/internal/hierarchy"
	"flowcube/internal/mining"
	"flowcube/internal/pathdb"
	"flowcube/internal/transact"
)

// Build materializes the iceberg flowcube for the path database under the
// configuration: it encodes the database (§5 transaction transformation),
// runs the Shared algorithm to find frequent cells and frequent path
// segments at every materialized abstraction level, constructs a flowgraph
// for every frequent cell of every requested cuboid, mines exceptions from
// the frequent segments, and — when τ is set — marks redundant cells.
// It rejects an invalid configuration with a *ConfigError, and delegates
// to BuildContext with a background context.
func Build(db *pathdb.DB, cfg Config) (*Cube, error) {
	return BuildContext(context.Background(), db, cfg)
}

// prepare runs everything that precedes the populate scan — encoding,
// mining, cuboid validation, and frequent-cell instantiation — and returns
// the cube with empty cells plus the per-cell exception conditions.
func prepare(db *pathdb.DB, cfg Config) (*Cube, cellConds, error) {
	syms, err := transact.NewSymbols(db.Schema, cfg.Plan)
	if err != nil {
		return nil, nil, err
	}
	txs := syms.Encode(db)

	mopts := mining.SharedOptions(cfg.MinSupport)
	mopts.Workers = cfg.Workers
	if cfg.MinCount > 0 {
		mopts.MinCount = cfg.MinCount
	}
	res, err := mining.Mine(syms, txs, mopts)
	if err != nil {
		return nil, nil, err
	}
	minCount := res.MinCount

	cube := &Cube{
		Schema:   db.Schema,
		Config:   cfg,
		Symbols:  syms,
		Mining:   res,
		Cuboids:  make(map[string]*Cuboid),
		minCount: minCount,
	}

	specs := cfg.Cuboids
	if specs == nil {
		specs = specsFromPlan(syms)
	}
	for _, spec := range specs {
		if err := validateSpec(spec, syms, db.Schema); err != nil {
			return nil, nil, err
		}
		cube.Cuboids[spec.Key()] = &Cuboid{Spec: spec, Cells: make(map[CellID]*Cell)}
	}

	// Instantiate frequent cells from the mining output, and collect the
	// exception conditions per cell from the mixed dim+stage itemsets.
	conds := cube.instantiateCells(db, res)
	return cube, conds, nil
}

func validateSpec(spec CuboidSpec, syms *transact.Symbols, schema *pathdb.Schema) error {
	if len(spec.Item) != len(schema.Dims) {
		return fmt.Errorf("core: cuboid %s has %d item levels, schema has %d dimensions",
			spec.Key(), len(spec.Item), len(schema.Dims))
	}
	if spec.PathLevel < 0 || spec.PathLevel >= len(syms.PathLevels()) {
		return fmt.Errorf("core: cuboid %s references path level %d, plan has %d",
			spec.Key(), spec.PathLevel, len(syms.PathLevels()))
	}
	dimLevels := syms.DimLevels()
	for d, l := range spec.Item {
		if l == 0 {
			continue
		}
		ok := false
		for _, ml := range dimLevels[d] {
			if ml == l {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("core: cuboid %s uses unmaterialized level %d of dimension %q",
				spec.Key(), l, schema.Dims[d].Dimension())
		}
	}
	return nil
}

// cellConds accumulates exception conditions per cell.
type cellConds map[*Cell][][]flowgraph.StagePin

// instantiateCells creates the frequent cells of every materialized cuboid
// from the mining result and returns the per-cell exception conditions.
func (c *Cube) instantiateCells(db *pathdb.DB, res *mining.Result) cellConds {
	syms := c.Symbols
	m := len(db.Schema.Dims)
	conds := make(cellConds)

	// The apex item level (all '*') is frequent whenever the database is.
	if int64(db.Len()) >= c.minCount {
		values := make([]hierarchy.NodeID, m)
		for i := range values {
			values[i] = hierarchy.Root
		}
		c.addCell(apexLevel(m), values, int64(db.Len()))
	}

	// One classification scratch for the whole result: the levels are read
	// in place, and only what a cell or a condition keeps is allocated.
	il := make(ItemLevel, m)
	values := make([]hierarchy.NodeID, m)
	var stages []transact.Item
	for _, level := range res.ByLength {
		for i, count := range level.Counts {
			var ok bool
			if stages, ok = c.classify(level.Set(i), il, values, stages[:0]); !ok {
				continue
			}
			if len(stages) == 0 {
				// A pure item-dimension itemset is a frequent cell of the
				// cuboid at its item level — for every path level.
				c.addCell(il, values, count)
				continue
			}
			// A mixed itemset is a frequent path segment within a cell: an
			// exception condition, provided all stages sit at one path level.
			// Its item part is a shorter frequent itemset, so the cell exists.
			pathLevel, pins, ok := stagePins(syms, stages)
			if !ok {
				continue
			}
			cb := c.Cuboid(CuboidSpec{Item: il, PathLevel: pathLevel})
			if cb == nil {
				continue
			}
			if cell, _ := cb.get(values); cell != nil {
				conds[cell] = append(conds[cell], pins)
			}
		}
	}
	return conds
}

func apexLevel(m int) ItemLevel {
	il := make(ItemLevel, m)
	return il
}

// classify splits a frequent itemset into its item-dimension part (at most
// one value per dimension — sets violating that, which only the unpruned
// Basic run produces, are skipped) and its stage part. il and values are
// overwritten and the stage items appended to stages: all three are the
// caller's scratch.
func (c *Cube) classify(set []transact.Item, il ItemLevel, values []hierarchy.NodeID, stages []transact.Item) ([]transact.Item, bool) {
	syms := c.Symbols
	for d := range il {
		il[d] = 0
		values[d] = hierarchy.Root
	}
	for _, it := range set {
		if syms.IsStage(it) {
			stages = append(stages, it)
			continue
		}
		d := syms.Dim(it)
		if il[d] != 0 {
			return stages, false // two values of one dimension
		}
		lvl := syms.Level(it)
		if lvl == 0 {
			continue // '*' item (Basic encoding); contributes nothing
		}
		il[d] = lvl
		values[d] = syms.Node(it)
	}
	return stages, true
}

// stagePins converts an all-stage itemset into exception condition pins and
// returns their shared path level. All stages must share one path level;
// conditions whose pins are all duration-'*' are vacuous (the prefix tree
// already conditions on locations) and rejected with ok=false.
func stagePins(syms *transact.Symbols, stages []transact.Item) (int, []flowgraph.StagePin, bool) {
	// Filter before allocating: most mined segments mix path levels or pin
	// no duration.
	level := syms.StageLevel(stages[0])
	concrete := false
	for _, st := range stages {
		if syms.StageLevel(st) != level {
			return 0, nil, false
		}
		if _, hasDur := syms.StageDuration(st); hasDur {
			concrete = true
		}
	}
	if !concrete {
		return 0, nil, false
	}
	pins := make([]flowgraph.StagePin, len(stages))
	for i, st := range stages {
		seq := syms.StageSeq(st)
		dur, hasDur := syms.StageDuration(st)
		pins[i] = flowgraph.StagePin{
			Depth:    len(seq),
			Location: seq[len(seq)-1],
			Duration: dur,
			DurAny:   !hasDur,
		}
	}
	return level, pins, true
}

// addCell registers a frequent cell in every materialized cuboid sharing
// its item level.
func (c *Cube) addCell(il ItemLevel, values []hierarchy.NodeID, count int64) {
	id := MakeCellID(values)
	for pl := range c.Symbols.PathLevels() {
		cb := c.Cuboid(CuboidSpec{Item: il, PathLevel: pl})
		if cb == nil {
			continue
		}
		if _, dup := cb.Cells[id]; dup {
			continue
		}
		cb.Cells[id] = &Cell{
			Values:     append([]hierarchy.NodeID(nil), values...),
			Count:      count,
			Similarity: SimilarityUnknown,
		}
	}
}

// populate routes every record to its cell at every materialized item level
// and builds the flowgraph measures. Past that only exception mining reads a
// cell's tids, so a cube built without it drops them.
func (c *Cube) populate(db *pathdb.DB) {
	c.assignCells(db)
	c.buildGraphs(db, !c.Config.MineExceptions)
	c.haveTIDs = c.Config.MineExceptions
}

// assignCells routes every record to its cell at every item level and
// gives each cell its tids: one list per cell of a level, shared by the
// level's cuboids that hold the cell (capacity-clipped, so an append
// reallocates). The records split into contiguous chunks, one per worker,
// each with its own tid buckets; buckets are concatenated in chunk order,
// which, as chunks cover ascending tid ranges, is the sequential scan's
// order.
func (c *Cube) assignCells(db *pathdb.DB) {
	c.haveTIDs = true
	levels := c.levelGroups()
	slotOf := make([]map[CellID]int32, len(levels))
	var slots [][]*Cell // per slot: the cell in each cuboid holding it
	for li, lv := range levels {
		slotOf[li] = make(map[CellID]int32)
		for _, spec := range lv.Specs {
			for _, cell := range c.Cuboid(spec).SortedCells() {
				id := MakeCellID(cell.Values)
				s, ok := slotOf[li][id]
				if !ok {
					s = int32(len(slots))
					slotOf[li][id] = s
					slots = append(slots, nil)
				}
				slots[s] = append(slots[s], cell)
			}
		}
	}

	n := len(db.Records)
	chunks := max(min(c.Config.Workers, n), 1)
	size := (n + chunks - 1) / chunks
	buckets := make([][][]int32, chunks)
	// Made before the workers start: the first router call caches the
	// cube's routes.
	routers := make([]*recordRouter, chunks)
	for i := range routers {
		routers[i] = c.router()
	}
	c.forEach(chunks, func(i int) {
		bucket := make([][]int32, len(slots))
		r, lo := routers[i], min(i*size, n)
		for tid := lo; tid < min(lo+size, n); tid++ {
			r.route(db.Records[tid].Dims)
			for li, ids := range slotOf {
				id, _ := r.cell(li)
				if s, ok := ids[CellID(id)]; ok {
					bucket[s] = append(bucket[s], int32(tid))
				}
			}
		}
		buckets[i] = bucket
	})

	for s, cells := range slots {
		total := 0
		for _, b := range buckets {
			total += len(b[s])
		}
		if total == 0 {
			continue
		}
		tids := make([]int32, 0, total)
		for _, b := range buckets {
			tids = append(tids, b[s]...)
		}
		for _, cell := range cells {
			cell.tids = tids
		}
	}
}

// buildGraphs constructs the flowgraph measure of every cell from its
// assigned tids, dropping them afterwards when drop is set. It works one
// path level at a time: every record is aggregated to the level once, into
// one arena the level's cells all read and the next level does not keep,
// and the cells, independent of each other, spread across workers. Sorted
// cuboid order keeps the job list — and therefore worker scheduling and any
// profile of it — identical across runs.
func (c *Cube) buildGraphs(db *pathdb.DB, drop bool) {
	levels := c.Symbols.PathLevels()
	jobs := make([][]*Cell, len(levels))
	for _, cb := range c.sortedCuboids() {
		jobs[cb.Spec.PathLevel] = append(jobs[cb.Spec.PathLevel], cb.SortedCells()...)
	}
	for pl, cells := range jobs {
		if len(cells) == 0 {
			continue
		}
		level := levels[pl]
		agg := aggregateAll(db, level)
		c.forEach(len(cells), func(i int) {
			cell := cells[i]
			g := flowgraph.New(db.Schema.Location, level, nil)
			for _, tid := range cell.tids {
				g.AddAggregated(agg.path(tid))
			}
			cell.Graph = g
			if drop {
				cell.tids = nil
			}
		})
	}
}

// aggregated is every record's path aggregated to one path level, in one
// arena: record tid's stages are stages[ends[tid-1]:ends[tid]].
type aggregated struct {
	stages pathdb.Path
	ends   []int
}

// aggregateAll aggregates every record's path to the level, as AddPath
// would.
func aggregateAll(db *pathdb.DB, level pathdb.PathLevel) aggregated {
	n := 0
	for _, r := range db.Records {
		n += len(r.Path)
	}
	a := aggregated{stages: make(pathdb.Path, 0, n), ends: make([]int, len(db.Records))}
	for tid, r := range db.Records {
		a.stages = pathdb.AppendAggregated(a.stages, r.Path, level, nil)
		a.ends[tid] = len(a.stages)
	}
	return a
}

// path returns record tid's aggregated path.
func (a aggregated) path(tid int32) pathdb.Path {
	start := 0
	if tid > 0 {
		start = a.ends[tid-1]
	}
	return a.stages[start:a.ends[tid]:a.ends[tid]]
}

// forEach runs fn over [0,n) — concurrently when Config.Workers > 1. Each
// index touches disjoint state (one cell), so no synchronization beyond
// the join is needed.
func (c *Cube) forEach(n int, fn func(i int)) { forEach(c.Config.Workers, n, fn) }

// forEach runs fn over [0,n) on up to workers goroutines (sequentially at 0
// or 1). Workers claim indices from a shared cursor, so a finished index
// costs one atomic add, not a rendezvous with a feeder.
func forEach(workers, n int, fn func(i int)) {
	if workers <= 1 || n < 2 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// mineExceptions runs the holistic part of the measure: it seeds each
// cell's condition cache (conds.go) with the cell's frequent-segment
// conditions — so ApplyDelta knows them without re-mining — and
// mines every record of the cell as new against them. Those conditions
// include every single stage frequent in the cell, so no other scan looks
// for them. Cells are independent, so the work is spread across
// Config.Workers.
func (c *Cube) mineExceptions(db *pathdb.DB, conds cellConds) {
	// Sorted order for the same reason as populate: a deterministic job
	// list, so runs are comparable.
	type job struct {
		cell      *Cell
		pathLevel int
	}
	var jobs []job
	for _, cb := range c.sortedCuboids() {
		for _, cell := range cb.SortedCells() {
			if cell.Graph != nil {
				cell.conds = newCondSet(conds[cell])
				jobs = append(jobs, job{cell, cb.Spec.PathLevel})
			}
		}
	}
	r := &reminer{cube: c, db: db}
	c.forEach(len(jobs), func(i int) {
		// Only mining new conditions can fail, and Build's reminer mines none.
		_, _ = r.remine(jobs[i].cell, jobs[i].pathLevel, len(jobs[i].cell.tids))
	})
}
