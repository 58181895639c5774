// Package core assembles the paper's flowcube (§4): a collection of
// cuboids, each characterized by an item abstraction level Il and a path
// abstraction level Pl, whose cells carry flowgraph measures.
//
// Build drives the whole §5 pipeline: transaction encoding, the Shared
// mining of frequent cells and frequent path segments at every materialized
// abstraction level, flowgraph construction per frequent cell (the iceberg
// condition, Definition 4.5), exception mining from the frequent segments,
// and redundancy marking against item-lattice parents (Definition 4.4).
package core

import (
	"cmp"
	"encoding/binary"
	"slices"
	"sort"
	"strconv"
	"sync/atomic"

	"flowcube/internal/flowgraph"
	"flowcube/internal/hierarchy"
	"flowcube/internal/mining"
	"flowcube/internal/pathdb"
	"flowcube/internal/transact"
)

// ItemLevel is an item abstraction level: one hierarchy level per
// path-independent dimension, 0 meaning the dimension is aggregated to '*'.
type ItemLevel []int

// Key returns a canonical identity string.
func (il ItemLevel) Key() string {
	var buf [32]byte
	return string(il.appendKey(buf[:0]))
}

func (il ItemLevel) appendKey(b []byte) []byte { return appendDecimals(b, il) }

// appendDecimals appends xs to b in decimal, comma-separated.
func appendDecimals[T ~int | ~int32](b []byte, xs []T) []byte {
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return b
}

// Dominates reports il ⪯ other in the item lattice: il is at least as
// general in every dimension (the paper's n1 ⪯ n2 ordering).
func (il ItemLevel) Dominates(other ItemLevel) bool {
	for i := range il {
		if il[i] > other[i] {
			return false
		}
	}
	return true
}

// CuboidSpec identifies a cuboid ⟨Il, Pl⟩. PathLevel indexes the encoding
// plan's path levels.
type CuboidSpec struct {
	Item      ItemLevel
	PathLevel int
}

// Key returns a canonical identity string.
func (cs CuboidSpec) Key() string {
	var buf [40]byte
	return string(cs.appendKey(buf[:0]))
}

func (cs CuboidSpec) appendKey(b []byte) []byte {
	b = append(cs.Item.appendKey(b), '@')
	return strconv.AppendInt(b, int64(cs.PathLevel), 10)
}

// Cell is one flowcube cell: a combination of dimension values at the
// cuboid's item level, measured by a flowgraph over the cell's paths
// aggregated to the cuboid's path level.
type Cell struct {
	// Values holds one concept per dimension; hierarchy.Root for '*'.
	Values []hierarchy.NodeID
	// Count is the number of paths in the cell.
	Count int64
	// Graph is the flowgraph measure.
	Graph *flowgraph.Graph
	// Redundant marks cells whose flowgraph can be inferred from their
	// item-lattice parents at the same path level (Definition 4.4); set by
	// MarkRedundancy.
	Redundant bool
	// Similarity is the smallest parent similarity ϕ observed when marking
	// redundancy. It is SimilarityUnknown until MarkRedundancy runs, and
	// stays SimilarityUnknown for cells with no materialized parents to
	// compare against (the apex, or partially materialized lattices): such
	// cells are never redundant, and a real ϕ in (0, 1] must not be
	// fabricated for them.
	Similarity float64

	// conds caches the exception conditions checked for the cell (conds.go);
	// nil is a cold cache. Not serialized.
	conds *condSet
	// owner is the generation that may write the cell (delta.go).
	owner uint32
}

// CellID is a cell's identity within its cuboid, the key of every map or
// set of cells: 4 little-endian bytes per dimension value. It only names a
// cell; CompareCells orders cells.
type CellID string

// MakeCellID returns the identity of per-dimension values.
func MakeCellID(values []hierarchy.NodeID) CellID {
	var buf [48]byte
	return CellID(appendCellID(buf[:0], values))
}

// appendCellID appends the CellID bytes of values to b. A map probe keyed
// by CellID(appendCellID(buf[:0], values)) over a stack buffer allocates
// nothing.
func appendCellID(b []byte, values []hierarchy.NodeID) []byte {
	for _, v := range values {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return b
}

// values decodes the per-dimension values the identity was made from.
func (id CellID) values() []hierarchy.NodeID {
	out := make([]hierarchy.NodeID, len(id)/4)
	for d := range out {
		out[d] = hierarchy.NodeID(binary.LittleEndian.Uint32([]byte(id[4*d : 4*d+4])))
	}
	return out
}

// CompareCells orders cells as their values' decimal renderings ("12,3")
// compare as strings: dimension by dimension, each value by its decimal
// digits, so 10 sorts before 9. It is the order sections store cells in,
// and the order of every cell listing a snapshot or an answer carries.
func CompareCells(a, b []hierarchy.NodeID) int {
	for d := range min(len(a), len(b)) {
		if c := compareDecimal(a[d], b[d]); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(a), len(b))
}

// compareDecimal compares two values as their decimal strings do: '-'
// sorts before every digit, so signs order numerically; digit strings of
// one length order numerically too, and otherwise the longer one's leading
// digits decide, the shorter first on a tie (it is their prefix).
func compareDecimal(a, b hierarchy.NodeID) int {
	if a == b || (a < 0) != (b < 0) {
		return cmp.Compare(a, b)
	}
	x, y := uint64(max(int64(a), -int64(a))), uint64(max(int64(b), -int64(b)))
	nx, ny := decimalDigits(x), decimalDigits(y)
	if nx < ny {
		return cmp.Or(cmp.Compare(x, y/pow10[ny-nx]), -1)
	}
	return cmp.Or(cmp.Compare(x/pow10[nx-ny], y), cmp.Compare(nx, ny))
}

var pow10 = [...]uint64{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// decimalDigits counts the decimal digits of x < 1e10.
func decimalDigits(x uint64) int {
	n := 1
	for n < len(pow10) && x >= pow10[n] {
		n++
	}
	return n
}

// formatCell renders per-dimension values for messages, as "12,3".
func formatCell(values []hierarchy.NodeID) string { return string(appendDecimals(nil, values)) }

// SimilarityUnknown is the Cell.Similarity sentinel meaning "no parent
// similarity has been measured": MarkRedundancy has not run, or the cell has
// no materialized item-lattice parents to compare against. Valid measured
// similarities lie in (0, 1].
const SimilarityUnknown = -1

// Cuboid is a materialized cuboid: its spec and frequent cells, stored in
// two layers — an immutable base and the cells written over it. A cuboid
// that is built, Loaded or assembled in memory has no base: Cells holds
// every cell. One opened with LoadCubeLazy has its mapped snapshot section
// as the base, and Cells holds only what its lineage wrote over it, a nil
// value hiding the base cell of that identity. SortedCells lists both
// layers.
type Cuboid struct {
	Spec  CuboidSpec
	Cells map[CellID]*Cell

	// owner is the generation that may write the cell map (delta.go).
	owner uint32
	// base is the mapped section under Cells (lazyload.go), or nil.
	base *lazySection
}

// Cube is a materialized (iceberg, optionally non-redundant) flowcube.
//
// Concurrency: a finished cube is safe for concurrent readers. The read
// paths — Cell, Cuboid, Answer, NumCells, CuboidSummaries,
// TopExceptions, Validate, SortedCells, and every flowgraph render/analysis
// method they expose — do not mutate the cube or any lazily cached state.
// Mutating operations (MarkRedundancy, Compress, ApplyDelta)
// must not run concurrently with readers of the same cube value; a
// long-lived server treats the cube it serves as immutable, runs them on a
// Fork — which shares the served cube's cells and flowgraphs and copies
// what it writes, so the served cube is not disturbed — and swaps
// the fork in (see delta.go and internal/server).
type Cube struct {
	Schema *pathdb.Schema
	Config Config
	// Mining is the statistics of the Shared run that built the cube, kept
	// for inspection; nil on a loaded cube. Its itemsets are not kept.
	Mining *mining.Stats
	// Cuboids maps CuboidSpec keys to materialized cuboids. Once the cube
	// is built or loaded, remove one only through DropCuboid.
	Cuboids map[string]*Cuboid

	minCount int64
	// gen is the cube's generation tag: it may write exactly the cuboids
	// and cells that carry it (delta.go).
	gen         uint32
	cellsCopied int
	// ledger is the sub-δ ledger (ledger.go) — counts and, when the cube
	// mines exceptions, record ids, stage transactions and the symbol table
	// they are interned into — shared with the forks: nil until ApplyDelta
	// derives it on the lineage's first append.
	ledger *deltaLedger
	// compressed records that Compress dropped the redundant cells: the
	// cube no longer tells a sub-δ combination from a dropped cell, so
	// ApplyDelta refuses it. Forks, FilterCells, Merge and the snapshot keep
	// it.
	compressed bool
	// groups caches levelGroups and routes the record router's fixed part;
	// nil until first asked for, reset by DropCuboid, shared by forks.
	groups []levelGroup
	routes *routes
	// order caches the Cuboids keys in ascending order for sortedCuboids:
	// nil until first asked for, reset by DropCuboid, shared by forks.
	order atomic.Pointer[[]string]
	// lazy is the mapped snapshot under the section-backed cuboids of a
	// LoadCubeLazy lineage, shared by its forks: what LazyStats and LazyErr
	// report on and Close releases. Nil for every other cube.
	lazy *lazyBackend
}

// Config parameterizes Build.
type Config struct {
	// MinSupport is the iceberg threshold δ as a fraction of the database;
	// MinCount overrides it with an absolute count.
	MinSupport float64
	MinCount   int64
	// Epsilon is the minimum deviation ε for recording an exception.
	Epsilon float64
	// Tau is the similarity threshold τ above which a cell is redundant
	// given its parents. Zero disables redundancy marking.
	Tau float64
	// Plan is the encoding/materialization plan (dimension levels and path
	// levels). It must contain at least one path level.
	Plan transact.Plan
	// Cuboids restricts materialization to the listed cuboids (partial
	// materialization, §5). Nil materializes every combination of the
	// plan's dimension levels (plus '*') and path levels.
	Cuboids []CuboidSpec
	// MineExceptions controls whether flowgraph exceptions are computed.
	// They are the holistic (expensive) part of the measure; benchmarks of
	// the mining algorithms leave this off.
	MineExceptions bool
	// SingleStageExceptions has no effect. It once added a scan for
	// exceptions conditioned on a single prior stage's duration, but every
	// such condition that reaches δ is a frequent segment the Shared run
	// already supplies, so the scan found nothing new and was deleted.
	// Snapshots do not record it (format v4 refuses the header bit that
	// once did), so a loaded cube reads it as false. The field stays only
	// because the benchmark harness assigns it; deleting it is an open
	// ROADMAP item.
	SingleStageExceptions bool
	// Workers spreads flowgraph construction, exception mining and
	// redundancy marking across goroutines (cells are independent), in
	// Build and in every ApplyDelta alike. It is also copied into the
	// mining options. 0 or 1 is sequential. Snapshots do not record it: a
	// loaded cube's owner sets it.
	Workers int
	// DeltaLedger has no effect. It once made Build count the sub-δ ledger
	// and Save persist it; ApplyDelta now derives the ledger on a cube's
	// first append (DESIGN.md §9), whatever the cube was built with. The
	// field stays only because the benchmark harness assigns it; deleting
	// it is an open ROADMAP item.
	DeltaLedger bool
}

// MinCount reports the absolute iceberg threshold used by the cube.
func (c *Cube) MinCount() int64 { return c.minCount }

// PathLevels returns the plan's path abstraction levels.
func (c *Cube) PathLevels() []pathdb.PathLevel { return c.Config.Plan.PathLevels }

// DimLevels returns the plan's materialized levels per dimension: Build and
// the snapshot open normalize them once (transact.Plan.NormalizedDimLevels).
func (c *Cube) DimLevels() [][]int { return c.Config.Plan.DimLevels }

// Cuboid returns a materialized cuboid, or nil.
func (c *Cube) Cuboid(spec CuboidSpec) *Cuboid {
	var buf [40]byte
	return c.Cuboids[string(spec.appendKey(buf[:0]))]
}

// Cell resolves a cell by cuboid spec and per-dimension values (which must
// already be at the spec's item level; '*' dimensions use hierarchy.Root).
func (c *Cube) Cell(spec CuboidSpec, values []hierarchy.NodeID) (*Cell, bool) {
	cell, _ := c.Lookup(spec, values)
	return cell, cell != nil
}

// Lookup is Cell that also reports whether the cuboid is materialized at
// all, which is what tells a sub-δ or compressed cell (nil, true) from a
// cell of a cuboid the cube does not hold (nil, false). A cell of a mapped
// base decodes on first touch (through the LRU); one that fails to decode
// reports absence, and a section whose directory does not build reports
// not materialized, with the error available via LazyErr.
func (c *Cube) Lookup(spec CuboidSpec, values []hierarchy.NodeID) (*Cell, bool) {
	cb := c.Cuboid(spec)
	if cb == nil {
		return nil, false
	}
	return cb.get(values)
}

// EachCount calls fn with the values and path count of every cell of the
// cuboid, both layers, in CompareCells order, decoding no flowgraph: a
// mapped base answers from its section directory. values are read-only. It
// returns the base's read error, also recorded for LazyErr.
func (cb *Cuboid) EachCount(fn func(values []hierarchy.NodeID, count int64)) error {
	return cb.each(func(e *dirEntry, _ *Cell) error {
		fn(e.values, e.count)
		return nil
	})
}

// SortedCells returns every cell of the cuboid, both layers, in
// CompareCells order; base cells decode through the LRU. It returns nil
// when the base does not read, with the error available via LazyErr.
func (cb *Cuboid) SortedCells() []*Cell {
	cells, err := cb.cells()
	if err != nil {
		return nil
	}
	return cells
}

// cells is SortedCells with the base's read error.
func (cb *Cuboid) cells() ([]*Cell, error) {
	out := make([]*Cell, 0, cb.len())
	err := cb.each(func(e *dirEntry, cell *Cell) error {
		cell, err := cb.decoded(e, cell)
		if err != nil {
			return err
		}
		out = append(out, cell)
		return nil
	})
	return out, err
}

// each walks the cuboid's cells in CompareCells order — the order a
// section stores them in — merging the base's directory with the cells
// written over it. e describes every cell (values, count, redundancy) and
// must not be retained; cell is the cell when it is in memory and nil for
// a base cell, which decoded reads when the caller needs its graph. It
// returns fn's first error, or that of a base directory that does not
// build (recorded for LazyErr), and walks no further.
func (cb *Cuboid) each(fn func(e *dirEntry, cell *Cell) error) error {
	type written struct {
		values []hierarchy.NodeID
		cell   *Cell // nil: hides the base cell
	}
	mem := make([]written, 0, len(cb.Cells))
	for id, cell := range cb.Cells {
		if cell == nil {
			mem = append(mem, written{id.values(), nil})
		} else {
			mem = append(mem, written{cell.Values, cell})
		}
	}
	slices.SortFunc(mem, func(a, b written) int { return CompareCells(a.values, b.values) })
	var base []dirEntry
	if cb.base != nil {
		d, err := cb.base.dir()
		if err != nil {
			return err
		}
		base = d.entries
	}
	var e *dirEntry // allocated on first use: a walk of a bare base allocates nothing
	i := 0
	for _, w := range mem {
		for ; i < len(base); i++ {
			c := CompareCells(base[i].values, w.values)
			if c == 0 {
				i++
			}
			if c >= 0 {
				break
			}
			if err := fn(&base[i], nil); err != nil {
				return err
			}
		}
		if w.cell == nil {
			continue
		}
		if e == nil {
			e = new(dirEntry)
		}
		*e = dirEntry{values: w.cell.Values, count: w.cell.Count, redundant: w.cell.Redundant}
		if err := fn(e, w.cell); err != nil {
			return err
		}
	}
	for ; i < len(base); i++ {
		if err := fn(&base[i], nil); err != nil {
			return err
		}
	}
	return nil
}

// decoded returns the cell each handed over: cell itself when it is in
// memory, else the base cell e names, decoded through the LRU.
func (cb *Cuboid) decoded(e *dirEntry, cell *Cell) (*Cell, error) {
	if cell != nil {
		return cell, nil
	}
	return cb.base.cell(e)
}

// find locates a cell in the two layers: the cell when it is in memory
// (nil when a nil entry hides the base's), else the base's directory entry,
// nil when neither layer holds it. materialized is false only when the
// base's directory does not build.
func (cb *Cuboid) find(values []hierarchy.NodeID) (e *dirEntry, cell *Cell, materialized bool) {
	var buf [48]byte
	if cell, ok := cb.Cells[CellID(appendCellID(buf[:0], values))]; ok || cb.base == nil {
		return nil, cell, true
	}
	d, err := cb.base.dir()
	if err != nil {
		return nil, nil, false
	}
	return d.find(values), nil, true
}

// get is the point read behind Lookup.
func (cb *Cuboid) get(values []hierarchy.NodeID) (*Cell, bool) {
	e, cell, materialized := cb.find(values)
	if e != nil {
		cell, _ = cb.base.cell(e)
	}
	return cell, materialized
}

// len counts the cuboid's cells: the base's census from its section header
// adjusted by the cells written over it, so only an overlaid base needs its
// directory.
func (cb *Cuboid) len() int {
	if cb.base == nil {
		return len(cb.Cells)
	}
	n := cb.base.numCells
	if len(cb.Cells) == 0 {
		return n
	}
	d, err := cb.base.dir()
	if err != nil {
		return n
	}
	for id, cell := range cb.Cells {
		switch {
		case cell == nil && d.find(id.values()) != nil:
			n--
		case cell != nil && d.find(cell.Values) == nil:
			n++
		}
	}
	return n
}

// sortedCuboids returns the materialized cuboids in ascending key order.
// Every path that serializes, validates, or reports on the whole cube walks
// this slice rather than the Cuboids map: map iteration order is randomized
// per run, so ranging the map directly would make snapshots, first-violation
// errors, and summaries differ between two otherwise identical processes.
func (c *Cube) sortedCuboids() []*Cuboid {
	keys := c.sortedKeys()
	out := make([]*Cuboid, len(keys))
	for i, k := range keys {
		out[i] = c.Cuboids[k]
	}
	return out
}

// sortedKeys returns the Cuboids keys in ascending order, sorted once per
// key set: queries planning over the lattice ask for it on every computed
// cell. Callers must not modify it.
func (c *Cube) sortedKeys() []string {
	if keys := c.order.Load(); keys != nil {
		return *keys
	}
	keys := make([]string, 0, len(c.Cuboids))
	for k := range c.Cuboids {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	c.order.Store(&keys)
	return keys
}

// NumCells reports the total number of materialized cells across cuboids.
// A mapped base that nothing was written over counts from its section
// header, decoding nothing.
func (c *Cube) NumCells() int {
	n := 0
	for _, cb := range c.Cuboids {
		n += cb.len()
	}
	return n
}

// CuboidSummary describes one materialized cuboid: its identity and cell
// counts.
type CuboidSummary struct {
	Key       string
	Item      ItemLevel
	PathLevel int
	Cells     int
	Redundant int
}

// CuboidSummaries returns a per-cuboid census sorted by cuboid key, so
// long-lived consumers (e.g. query servers) can report on the cube without
// iterating its internal maps. It is a pure read and safe under concurrent
// readers. A mapped base's census comes from its section directory (one
// flat walk, cached like any entry) without decoding any cell; a walk
// failure reports nil with the error available via LazyErr.
func (c *Cube) CuboidSummaries() []CuboidSummary {
	keys := c.sortedKeys()
	out := make([]CuboidSummary, 0, len(keys))
	for _, key := range keys {
		cb := c.Cuboids[key]
		s := CuboidSummary{Key: key, Item: cb.Spec.Item, PathLevel: cb.Spec.PathLevel}
		err := cb.each(func(e *dirEntry, _ *Cell) error {
			s.Cells++
			if e.redundant {
				s.Redundant++
			}
			return nil
		})
		if err != nil {
			return nil
		}
		out = append(out, s)
	}
	return out
}

// specsFromPlan enumerates every cuboid of the plan: the cross product of
// per-dimension {'*'} ∪ materialized levels with the path levels.
func (c *Cube) specsFromPlan() []CuboidSpec {
	dimLevels := c.DimLevels()
	var items []ItemLevel
	var rec func(d int, cur ItemLevel)
	rec = func(d int, cur ItemLevel) {
		if d == len(dimLevels) {
			items = append(items, append(ItemLevel(nil), cur...))
			return
		}
		rec(d+1, append(cur, 0))
		for _, l := range dimLevels[d] {
			rec(d+1, append(cur, l))
		}
	}
	rec(0, nil)
	var out []CuboidSpec
	for pl := range c.PathLevels() {
		for _, il := range items {
			out = append(out, CuboidSpec{Item: il, PathLevel: pl})
		}
	}
	return out
}
