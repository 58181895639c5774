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
	"sort"
	"strconv"

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

func (il ItemLevel) appendKey(b []byte) []byte {
	for i, l := range il {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(l), 10)
	}
	return b
}

// ValuesOf writes a record's dimension values as seen at the item level
// into out — the ancestor at each dimension's level, hierarchy.Root where
// the level is '*' — and returns out.
func (il ItemLevel) ValuesOf(schema *pathdb.Schema, dims, out []hierarchy.NodeID) []hierarchy.NodeID {
	for d, l := range il {
		out[d] = hierarchy.Root
		if l > 0 {
			out[d] = schema.Dims[d].AncestorAt(dims[d], l)
		}
	}
	return out
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
	b := append(cs.Item.appendKey(buf[:0]), '@')
	return string(strconv.AppendInt(b, int64(cs.PathLevel), 10))
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

	tids []int32
	// conds caches the exception conditions checked for the cell (conds.go);
	// nil is a cold cache. Not serialized.
	conds *CondSet
	// owner is the generation that may write the cell (delta.go).
	owner uint32
}

// cellKey canonically encodes per-dimension values.
func cellKey(values []hierarchy.NodeID) string {
	var buf [48]byte
	b := buf[:0]
	for i, v := range values {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return string(b)
}

// SimilarityUnknown is the Cell.Similarity sentinel meaning "no parent
// similarity has been measured": MarkRedundancy has not run, or the cell has
// no materialized item-lattice parents to compare against. Valid measured
// similarities lie in (0, 1].
const SimilarityUnknown = -1

// Cuboid is a materialized cuboid: its spec and frequent cells.
type Cuboid struct {
	Spec  CuboidSpec
	Cells map[string]*Cell

	// owner is the generation that may write the cell map (delta.go).
	owner uint32
}

// Cube is a materialized (iceberg, optionally non-redundant) flowcube.
//
// Concurrency: a finished cube is safe for concurrent readers. The read
// paths — Cell, Cuboid, Answer, NumCells, CuboidSummaries,
// TopExceptions, Validate, SortedCells, and every flowgraph render/analysis
// method they expose — do not mutate the cube or any lazily cached state.
// Mutating operations (MarkRedundancy, Compress, incr.ApplyDelta)
// must not run concurrently with readers of the same cube value; a
// long-lived server treats the cube it serves as immutable, runs them on a
// Fork — which shares the served cube's cells and flowgraph nodes and
// copies what it writes, so the served cube is not disturbed — and swaps
// the fork in (see delta.go and internal/server).
type Cube struct {
	Schema  *pathdb.Schema
	Config  Config
	Symbols *transact.Symbols
	// Mining is the Shared run that produced the cube; kept for
	// inspection (candidate statistics, frequent segments).
	Mining *mining.Result
	// Cuboids maps CuboidSpec keys to materialized cuboids.
	Cuboids map[string]*Cuboid

	minCount int64
	// gen is the cube's generation tag: it may write exactly the cuboids,
	// cells, flowgraph nodes and ledger parts that carry it (delta.go).
	gen         uint32
	cellsCopied int
	// ledger is the sub-δ count store carried when Config.DeltaLedger is
	// set; see ledger.go and internal/incr.
	ledger *Ledger
	// haveTIDs records that the cells carry their record-id lists.
	haveTIDs bool
	// levelCuboids caches LevelCuboids; nil until first asked for.
	levelCuboids []LevelCuboids
	// lazy is non-nil for cubes opened with LoadCubeLazy: Cuboids stays
	// empty and the read paths answer from the mapped snapshot through the
	// backend (see lazyload.go). Mutators need Materialize first.
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
	// SingleStageExceptions additionally mines exceptions conditioned on
	// every single prior stage duration (not only on frequent segments).
	SingleStageExceptions bool
	// Workers spreads flowgraph construction and exception mining across
	// goroutines (cells are independent). It is also copied into the
	// mining options. 0 or 1 is sequential.
	Workers int
	// DeltaLedger carries an auxiliary sub-δ count ledger in the cube (and
	// its snapshots): the exact count of every below-threshold dimension
	// combination at each materialized item level. It is what lets
	// incr.ApplyDelta admit newly-frequent iceberg cells without a base
	// database scan; see DESIGN.md §9.
	DeltaLedger bool
}

// MinCount reports the absolute iceberg threshold used by the cube.
func (c *Cube) MinCount() int64 { return c.minCount }

// Cuboid returns a materialized cuboid, or nil. On a lazily loaded cube
// every call decodes the cuboid's whole section afresh, uncached — point
// reads go through Lookup, which decodes one cell; a section that fails to
// decode reports nil, with the error available via LazyErr.
func (c *Cube) Cuboid(spec CuboidSpec) *Cuboid {
	if c.lazy != nil {
		sec := c.lazy.secs[spec.Key()]
		if sec == nil {
			return nil
		}
		cb, _ := c.lazy.cuboid(sec)
		return cb
	}
	return c.Cuboids[spec.Key()]
}

// Cell resolves a cell by cuboid spec and per-dimension values (which must
// already be at the spec's item level; '*' dimensions use hierarchy.Root).
func (c *Cube) Cell(spec CuboidSpec, values []hierarchy.NodeID) (*Cell, bool) {
	cell, _ := c.Lookup(spec, values)
	return cell, cell != nil
}

// Lookup is Cell that also reports whether the cuboid is materialized at
// all, which is what tells a sub-δ or compressed cell (nil, true) from a
// cell of a cuboid the cube does not hold (nil, false). On a lazily loaded
// cube it decodes that one cell on first touch (through the LRU); a cell
// that fails to decode reports absence, with the error available via
// LazyErr.
func (c *Cube) Lookup(spec CuboidSpec, values []hierarchy.NodeID) (*Cell, bool) {
	if c.lazy != nil {
		return c.lazy.lookup(spec.Key(), values)
	}
	cb := c.Cuboids[spec.Key()]
	if cb == nil {
		return nil, false
	}
	return cb.Cells[cellKey(values)], true
}

// Cells returns every materialized cell of a cuboid sorted by value key,
// for deterministic iteration.
func (cb *Cuboid) SortedCells() []*Cell {
	keys := make([]string, 0, len(cb.Cells))
	for k := range cb.Cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Cell, len(keys))
	for i, k := range keys {
		out[i] = cb.Cells[k]
	}
	return out
}

// sortedCuboids returns the materialized cuboids in ascending key order.
// Every path that serializes, validates, or reports on the whole cube walks
// this slice rather than the Cuboids map: map iteration order is randomized
// per run, so ranging the map directly would make snapshots, first-violation
// errors, and summaries differ between two otherwise identical processes.
//
// Eager cubes only: a lazy cube's Cuboids map is empty, and its whole-cube
// walks have their own backend paths.
func (c *Cube) sortedCuboids() []*Cuboid {
	keys := make([]string, 0, len(c.Cuboids))
	for k := range c.Cuboids {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Cuboid, len(keys))
	for i, k := range keys {
		out[i] = c.Cuboids[k]
	}
	return out
}

// NumCells reports the total number of materialized cells across cuboids.
// On a lazy cube it sums the per-section cell counts from the section
// headers without decoding any cells.
func (c *Cube) NumCells() int {
	if c.lazy != nil {
		return c.lazy.numCells()
	}
	n := 0
	for _, cb := range c.Cuboids {
		n += len(cb.Cells)
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
// readers. On a lazy cube the census comes from the section directories
// (one flat walk each, cached like any entry) without materializing any
// cells; a walk failure reports nil with the error available via LazyErr.
func (c *Cube) CuboidSummaries() []CuboidSummary {
	if c.lazy != nil {
		out, err := c.lazy.summaries()
		if err != nil {
			c.lazy.noteErr(err)
			return nil
		}
		return out
	}
	out := make([]CuboidSummary, 0, len(c.Cuboids))
	for key, cb := range c.Cuboids {
		s := CuboidSummary{
			Key:       key,
			Item:      cb.Spec.Item,
			PathLevel: cb.Spec.PathLevel,
			Cells:     len(cb.Cells),
		}
		for _, cell := range cb.Cells {
			if cell.Redundant {
				s.Redundant++
			}
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// specsFromPlan enumerates every cuboid of the plan: the cross product of
// per-dimension {'*'} ∪ materialized levels with the path levels.
func specsFromPlan(syms *transact.Symbols) []CuboidSpec {
	dimLevels := syms.DimLevels()
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
	for pl := range syms.PathLevels() {
		for _, il := range items {
			out = append(out, CuboidSpec{Item: il, PathLevel: pl})
		}
	}
	return out
}
