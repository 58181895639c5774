package core

// Horizontal partitioning support (see internal/cluster and DESIGN.md §10):
// carving one materialized cube into per-shard cubes along cell-value
// boundaries, re-assembling shards into the original cube, and loading just
// a snapshot's metadata prefix so a stateless router can validate and route
// without holding any cells.
//
// This file is on the immutcube allowlist for the same reason delta.go is:
// every cube mutated here is freshly constructed and not yet shared with
// any reader.

import (
	"context"
	"fmt"
	"io"
	"math"

	"flowcube/internal/hierarchy"
)

// FilterCells returns a new cube holding exactly the cells (and sub-δ
// ledger entries, once an append has derived the ledger and unless a call
// holds it or a failed one left it claimed) whose
// per-dimension values satisfy keep. Every cuboid of the original stays
// materialized — possibly empty — and every ledger item level stays
// present, so a set of complementary filters partitions the cube: Merge
// over cubes filtered by disjoint, exhaustive predicates reproduces the
// original cell-for-cell, and their snapshots carry the same section
// census.
//
// The result shares the mapped bases and the *Cell pointers (and through
// them the flowgraph nodes) with the receiver under the ownership rule of
// delta.go: it is a later generation, so it reads what the receiver holds
// and a write through ownedCell copies first; its ledger, symbol table
// included, is its own (deltaLedger.filter). Selection runs on value
// tuples, so a mapped base decodes nothing: its cells that fail keep are
// hidden (one whose directory does not build stays as unreadable as it
// was, its error recorded for LazyErr). The mining result is dropped: it
// describes the whole build, not the kept subset.
func (c *Cube) FilterCells(keep func(values []hierarchy.NodeID) bool) *Cube {
	out := &Cube{
		Schema:     c.Schema,
		Config:     c.Config,
		Cuboids:    make(map[string]*Cuboid, len(c.Cuboids)),
		minCount:   c.minCount,
		gen:        c.gen + 1,
		compressed: c.compressed,
		lazy:       c.lazy,
	}
	for key, cb := range c.Cuboids {
		ncb := &Cuboid{Spec: cb.Spec, Cells: make(map[CellID]*Cell), owner: out.gen, base: cb.base}
		_ = cb.each(func(e *dirEntry, cell *Cell) error {
			if !keep(e.values) {
				ncb.remove(MakeCellID(e.values))
			} else if cell != nil {
				ncb.Cells[MakeCellID(e.values)] = cell
			}
			return nil
		})
		out.Cuboids[key] = ncb
	}
	if c.ledger != nil {
		out.ledger = c.ledger.filter(keep)
	}
	return out
}

// Merge re-assembles cubes produced by complementary FilterCells calls (or
// loaded from the per-shard snapshots internal/cluster writes) into one
// cube. The shards must agree on thresholds, schema shape, and cuboid
// census, and no cell may appear in more than one shard; violations report
// which shard disagrees. The merged cube takes the first shard's schema and
// plan and shares cell pointers with its inputs, as a generation later
// than all of them (see FilterCells); the cells of a mapped base are
// decoded into it, and a base that does not decode fails the merge. It
// carries no sub-δ ledger: its first append derives one.
func Merge(shards []*Cube) (*Cube, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("core: merge of zero shards")
	}
	first := shards[0]
	out := &Cube{
		Schema:   first.Schema,
		Config:   first.Config,
		Cuboids:  make(map[string]*Cuboid, len(first.Cuboids)),
		minCount: first.minCount,
	}
	for _, s := range shards {
		out.gen = max(out.gen, s.gen+1)
		out.compressed = out.compressed || s.compressed
	}
	for i, s := range shards {
		if err := compatibleShard(first, s); err != nil {
			return nil, fmt.Errorf("core: merge shard %d: %w", i, err)
		}
		for key, cb := range s.Cuboids {
			ncb := out.Cuboids[key]
			if ncb == nil {
				ncb = &Cuboid{Spec: cb.Spec, Cells: make(map[CellID]*Cell, len(cb.Cells)), owner: out.gen}
				out.Cuboids[key] = ncb
			}
			if err := cb.each(func(e *dirEntry, cell *Cell) error {
				id := MakeCellID(e.values)
				if _, dup := ncb.Cells[id]; dup {
					return fmt.Errorf("cell %s of cuboid %s already merged from an earlier shard", formatCell(e.values), key)
				}
				cell, err := cb.decoded(e, cell)
				if err != nil {
					return err
				}
				ncb.Cells[id] = cell
				return nil
			}); err != nil {
				return nil, fmt.Errorf("core: merge shard %d: %w", i, err)
			}
		}
	}
	return out, nil
}

// compatibleShard checks that b describes the same cube as a: same
// thresholds (floats compared by bit pattern — shards come from the same
// writer, so byte-equality is the contract), same exception-mining
// switch, same dimension names and sizes, same path levels, and the same
// materialized cuboid census.
func compatibleShard(a, b *Cube) error {
	if a.minCount != b.minCount {
		return fmt.Errorf("min count %d, want %d", b.minCount, a.minCount)
	}
	if a.Config.MineExceptions != b.Config.MineExceptions {
		return fmt.Errorf("exception mining %v, want %v", b.Config.MineExceptions, a.Config.MineExceptions)
	}
	if math.Float64bits(a.Config.Epsilon) != math.Float64bits(b.Config.Epsilon) {
		return fmt.Errorf("epsilon %v, want %v", b.Config.Epsilon, a.Config.Epsilon)
	}
	if math.Float64bits(a.Config.Tau) != math.Float64bits(b.Config.Tau) {
		return fmt.Errorf("tau %v, want %v", b.Config.Tau, a.Config.Tau)
	}
	if len(a.Schema.Dims) != len(b.Schema.Dims) {
		return fmt.Errorf("%d dimensions, want %d", len(b.Schema.Dims), len(a.Schema.Dims))
	}
	for d := range a.Schema.Dims {
		ah, bh := a.Schema.Dims[d], b.Schema.Dims[d]
		if ah.Dimension() != bh.Dimension() || ah.Len() != bh.Len() {
			return fmt.Errorf("dimension %d is %s (%d concepts), want %s (%d concepts)",
				d, bh.Dimension(), bh.Len(), ah.Dimension(), ah.Len())
		}
	}
	if la, lb := len(a.PathLevels()), len(b.PathLevels()); la != lb {
		return fmt.Errorf("%d path levels, want %d", lb, la)
	}
	if len(a.Cuboids) != len(b.Cuboids) {
		return fmt.Errorf("%d cuboids, want %d", len(b.Cuboids), len(a.Cuboids))
	}
	for key := range a.Cuboids {
		if _, ok := b.Cuboids[key]; !ok {
			return fmt.Errorf("missing cuboid %s", key)
		}
	}
	return nil
}

// LoadMeta reads only a snapshot's metadata — thresholds, schema
// hierarchies, and the encoding plan — returning a cube with no
// materialized cells. It stops after the plan section without touching the
// (arbitrarily large) cuboid sections. The result answers Schema, the plan
// (PathLevels, DimLevels), MinCount, ParseCellSpec-style lookups, and
// Config thresholds; NumCells is 0 and queries find nothing.
func LoadMeta(r io.Reader) (*Cube, error) {
	return LoadMetaContext(context.Background(), r)
}

// LoadMetaContext is LoadMeta with cancellation: ctx is checked before
// every read from r, so probing a snapshot on a slow reader can be
// abandoned.
func LoadMetaContext(ctx context.Context, r io.Reader) (*Cube, error) {
	cube, _, _, err := openSnapshot(newMemData(ctx, r, 0))
	return cube, err
}
