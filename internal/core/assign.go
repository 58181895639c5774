package core

import (
	"sort"

	"flowcube/internal/hierarchy"
	"flowcube/internal/pathdb"
)

// assignPlan is the precomputed state for populate's record→cell assignment
// scan. It probes each cuboid's slot table with the record's CellID built
// in one reused buffer, hoists the per-dimension ancestor lookups so each
// (dimension, level) pair is resolved once per record regardless of how
// many cuboids share it, and numbers every cell with a global slot id so
// workers can collect tids into plain slices.
type assignPlan struct {
	schema *pathdb.Schema
	// dimLevels lists, per dimension, the sorted distinct non-'*' levels any
	// target cuboid uses; anc rows in assign are indexed the same way.
	dimLevels [][]int
	targets   []assignTarget
	// slots maps global slot id → cell, in sorted cuboid/cell order, so the
	// bucket merge visits cells deterministically.
	slots []*Cell
}

// assignTarget is one materialized cuboid's view of the plan: where each
// dimension's value comes from, and the cell slot table.
type assignTarget struct {
	// levelIdx gives, per dimension, the row of the hoisted ancestor table
	// holding this cuboid's value, or -1 for a '*' dimension.
	levelIdx []int
	slots    map[CellID]int32
}

func newAssignPlan(schema *pathdb.Schema, targets []*Cuboid) *assignPlan {
	m := len(schema.Dims)
	p := &assignPlan{schema: schema, dimLevels: make([][]int, m)}
	for _, cb := range targets {
		for d, l := range cb.Spec.Item {
			if l == 0 || containsInt(p.dimLevels[d], l) {
				continue
			}
			p.dimLevels[d] = append(p.dimLevels[d], l)
		}
	}
	for d := range p.dimLevels {
		sort.Ints(p.dimLevels[d])
	}

	for _, cb := range targets {
		t := assignTarget{levelIdx: make([]int, m), slots: make(map[CellID]int32, len(cb.Cells))}
		for d, l := range cb.Spec.Item {
			t.levelIdx[d] = -1
			if l == 0 {
				continue
			}
			for li, have := range p.dimLevels[d] {
				if have == l {
					t.levelIdx[d] = li
				}
			}
		}
		for _, cell := range cb.SortedCells() {
			t.slots[MakeCellID(cell.Values)] = int32(len(p.slots))
			p.slots = append(p.slots, cell)
		}
		p.targets = append(p.targets, t)
	}
	return p
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// assign routes records [lo, hi) of the database to their cells, appending
// each matching tid to bucket[slot]. It allocates nothing per record: the
// hoisted ancestor table and the value and key buffers are reused across
// the whole range, and a slot-table probe keyed by a CellID conversion
// does not copy the key.
func (p *assignPlan) assign(db *pathdb.DB, lo, hi int, bucket [][]int32) {
	m := len(p.dimLevels)
	anc := make([][]hierarchy.NodeID, m)
	for d := range anc {
		anc[d] = make([]hierarchy.NodeID, len(p.dimLevels[d]))
	}
	values := make([]hierarchy.NodeID, m)
	key := make([]byte, 0, 4*m)
	for tid := lo; tid < hi; tid++ {
		rec := &db.Records[tid]
		for d, levels := range p.dimLevels {
			h := p.schema.Dims[d]
			for li, l := range levels {
				anc[d][li] = h.AncestorAt(rec.Dims[d], l)
			}
		}
		for ti := range p.targets {
			t := &p.targets[ti]
			for d, li := range t.levelIdx {
				values[d] = hierarchy.Root
				if li >= 0 {
					values[d] = anc[d][li]
				}
			}
			key = appendCellID(key[:0], values)
			if slot, ok := t.slots[CellID(key)]; ok {
				bucket[slot] = append(bucket[slot], int32(tid))
			}
		}
	}
}
