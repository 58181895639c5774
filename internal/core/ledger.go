package core

import (
	"sync/atomic"

	"flowcube/internal/hierarchy"
	"flowcube/internal/pathdb"
)

// deltaLedger is the auxiliary sub-δ count store: for every materialized
// item level, the exact path count of every dimension-value combination
// that occurs in the database but falls below the iceberg threshold, so
// ApplyDelta decides cell admission — base count plus batch count crossing
// δ — in O(1) per touched combination instead of a base-database scan.
// COUNT is distributive, so the ledger is a function of the database and
// δ: no cube is built, loaded or merged with one, and ApplyDelta derives it
// (deriveLedger) on a cube's first append.
//
// Forks share one ledger by pointer; stamp says which database it counts:
// the number of base records, or -1 while a call holds it. A writer claims
// it by swapping its database's length for -1 and, once done, stores the
// union's length. A claim fails — and the cube derives a ledger of its
// own — when a sibling fork advanced the ledger, a dropped fold left it
// claimed, or another call holds it. Along one commit lineage every claim
// succeeds, so only its first append derives.
type deltaLedger struct {
	stamp atomic.Int64
	// levels maps an item level's key to its combinations' counts, for
	// every item level of the cube that derived it; a cube's levels never
	// grow, so its forks find theirs there too.
	levels map[string]map[CellID]int64
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

// filter returns a new ledger, counting the same n records, with the
// combinations whose values satisfy keep; nil when it is not free.
func (l *deltaLedger) filter(keep func(values []hierarchy.NodeID) bool) *deltaLedger {
	n := l.stamp.Load()
	if n < 0 || !l.claim(int(n)) {
		return nil
	}
	defer l.release(int(n))
	out := &deltaLedger{levels: make(map[string]map[CellID]int64, len(l.levels))}
	out.stamp.Store(n)
	for key, counts := range l.levels {
		kept := make(map[CellID]int64)
		for id, count := range counts {
			if keep(id.values()) {
				kept[id] = count
			}
		}
		out.levels[key] = kept
	}
	return out
}

// deriveLedger counts, per materialized item level, the records of db whose
// combination is no cell of the cube, and keeps the counts below δ: the
// cube's sub-δ ledger over db, returned claimed (the caller releases it)
// and non-nil even when empty. Every cell counts at least δ records and
// every combination that does is dropped, so it counts every combination
// and reads no cell, directory or section. The records split into
// contiguous chunks, one per worker, each counting on its own; levels are
// independent, so their sums spread across workers too.
func (c *Cube) deriveLedger(db *pathdb.DB) *deltaLedger {
	levels := c.levelGroups()
	n := db.Len()
	chunks := max(min(c.Config.Workers, n), 1)
	size := (n + chunks - 1) / chunks
	tallies := make([][]tally, chunks)
	// Made before the workers start: the first router call caches the
	// cube's routes.
	routers := make([]*recordRouter, chunks)
	for i := range routers {
		routers[i] = c.router()
	}
	c.forEach(chunks, func(i int) {
		counts := make([]tally, len(levels))
		for li := range counts {
			counts[li].at = make(map[CellID]int32)
		}
		r, lo := routers[i], min(i*size, n)
		for tid := lo; tid < min(lo+size, n); tid++ {
			r.route(db.Records[tid].Dims)
			for li := range counts {
				id, _ := r.cell(li)
				t := &counts[li]
				if k, ok := t.at[CellID(id)]; ok {
					t.n[k]++
				} else {
					t.at[CellID(id)] = int32(len(t.n))
					t.n = append(t.n, 1)
				}
			}
		}
		tallies[i] = counts
	})

	sums := make([]map[CellID]int64, len(levels))
	c.forEach(len(levels), func(li int) {
		sum := make(map[CellID]int64, len(tallies[0][li].n))
		for _, counts := range tallies {
			for id, k := range counts[li].at {
				sum[id] += counts[li].n[k]
			}
		}
		for id, count := range sum {
			if count >= c.minCount {
				delete(sum, id)
			}
		}
		sums[li] = sum
	})
	l := &deltaLedger{levels: make(map[string]map[CellID]int64, len(levels))}
	l.stamp.Store(-1)
	for li, sum := range sums {
		l.levels[levels[li].Item.Key()] = sum
	}
	return l
}

// tally counts an item level's records per combination. at indexes n by
// combination, so a count allocates only a new combination's key.
type tally struct {
	at map[CellID]int32
	n  []int64
}

