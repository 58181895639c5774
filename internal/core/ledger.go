package core

import (
	"sync/atomic"

	"flowcube/internal/pathdb"
	"flowcube/internal/transact"
)

// deltaLedger is the one home of the record state appends need from the
// base database: per materialized item level, the exact path count of every
// dimension-value combination that occurs in the database but falls below
// the iceberg threshold, so ApplyDelta decides cell admission — base count
// plus batch count crossing δ — in O(1) per touched combination; and, on a
// cube that mines exceptions, what the re-mine reads: each cell's record
// ids, every record's stage transactions and the symbol table those are
// interned into. COUNT is distributive and the flowgraph measure algebraic,
// so all of it is a function of the database and δ: no cube is built,
// loaded, filtered or merged with it, and ApplyDelta derives it (deriveLedger) in one
// walk of the base on a first append.
//
// Forks share one ledger by pointer; stamp says which database it counts:
// the number of base records, or -1 while a call holds it. A writer claims
// it by swapping its database's length for -1, extends it in place — only
// the holder reads it — and, once done, stores the union's length. A claim
// fails, and the cube derives a ledger of its own, when a sibling fork
// advanced the ledger, a dropped fold left it claimed, or another call
// holds it. Along one commit lineage every claim succeeds, so only its
// first append derives.
type deltaLedger struct {
	stamp atomic.Int64
	// levels maps an item level's key to its combinations' counts, for
	// every item level of the cube that derived it; a cube's levels never
	// grow, so its forks find theirs there too.
	levels map[string]map[CellID]int64
	// ids maps an item level's key to each cell's record ids, ascending,
	// which every cuboid of the level shares; stages[tid] is record tid's
	// stage items (Symbols.EncodeStages), interned into syms. All three are
	// nil unless the cube mines exceptions.
	ids    map[string]map[CellID][]int32
	stages []transact.Transaction
	syms   *transact.Symbols
}

// claim reports whether the ledger counts exactly a database of n records
// and was free, and if so holds it for the caller until release. A nil
// ledger is never claimed.
func (l *deltaLedger) claim(n int) bool {
	return l != nil && l.stamp.CompareAndSwap(int64(n), -1)
}

// release hands a claimed ledger back, now counting n records.
func (l *deltaLedger) release(n int) { l.stamp.Store(int64(n)) }

// size reports the total number of sub-δ entries across item levels.
func (l *deltaLedger) size() int {
	n := 0
	for _, counts := range l.levels {
		n += len(counts)
	}
	return n
}

// deriveLedger walks db once (walkRecords) and counts, per materialized
// item level, the records of each combination, keeping the counts below δ:
// every cell counts at least δ records and every combination that does is a
// cell, so it reads no cell, directory or section. A cube that mines
// exceptions also gets each cell's record ids from the same walk, which
// notes every record's combination, filled in once the sums name the cells,
// and every record's stage transactions, interned on the calling goroutine
// into a new symbol table the ledger owns. The ledger comes back claimed
// (the caller releases it) and non-nil even when empty. Levels are
// independent, so their sums spread across workers too.
func (c *Cube) deriveLedger(db *pathdb.DB) *deltaLedger {
	levels := c.levelGroups()
	keepIDs := c.Config.MineExceptions
	chunks := walkRecords(c, db.Records, func() []tally {
		t := make([]tally, len(levels))
		for li := range t {
			t[li].at = make(map[CellID]int32)
		}
		return t
	}, func(t []tally, r *recordRouter, tid int) {
		for li := range t {
			id, _ := r.cell(li)
			lt := &t[li]
			k, ok := lt.at[CellID(id)]
			if !ok {
				k = int32(len(lt.n))
				lt.at[CellID(id)] = k
				lt.n = append(lt.n, 0)
			}
			lt.n[k]++
			if keepIDs {
				lt.combos = append(lt.combos, k)
			}
		}
	})

	sums := make([]map[CellID]int64, len(levels))
	cells := make([]map[CellID][]int32, len(levels))
	c.forEach(len(levels), func(li int) {
		sum := make(map[CellID]int64, len(chunks[0][li].n))
		for _, t := range chunks {
			for id, k := range t[li].at {
				sum[id] += t[li].n[k]
			}
		}
		ids := make(map[CellID][]int32)
		for id, count := range sum {
			if count >= c.minCount {
				delete(sum, id)
				if keepIDs {
					ids[id] = make([]int32, 0, count)
				}
			}
		}
		sums[li], cells[li] = sum, ids
		if !keepIDs {
			return
		}
		tid := int32(0) // the chunks cover ascending id ranges
		for _, t := range chunks {
			of := make([]CellID, len(t[li].n)) // a combination's id if it is a cell
			for id, k := range t[li].at {
				if _, ok := ids[id]; ok {
					of[k] = id
				}
			}
			for _, k := range t[li].combos {
				if id := of[k]; id != "" {
					ids[id] = append(ids[id], tid)
				}
				tid++
			}
		}
	})
	l := &deltaLedger{levels: make(map[string]map[CellID]int64, len(levels))}
	l.stamp.Store(-1)
	if keepIDs {
		l.ids = make(map[string]map[CellID][]int32, len(levels))
		// The plan was checked when the cube was built or opened.
		l.syms = transact.MustNewSymbols(c.Schema, c.Config.Plan)
		l.stages = make([]transact.Transaction, db.Len())
		for tid, rec := range db.Records {
			l.stages[tid] = l.syms.EncodeStages(rec.Path)
		}
	}
	for li, lv := range levels {
		l.levels[lv.Item.Key()] = sums[li]
		if keepIDs {
			l.ids[lv.Item.Key()] = cells[li]
		}
	}
	return l
}

// tally counts an item level's records per combination. at indexes n by
// combination, so a count allocates only a new combination's key; combos
// holds each record's combination index, in record order, when the walk
// keeps record ids.
type tally struct {
	at     map[CellID]int32
	n      []int64
	combos []int32
}
