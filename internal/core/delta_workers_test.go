package core_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/oracle"
	"flowcube/internal/pathdb"
)

// TestApplyDeltaWorkersAgree runs one append chain twice, at Workers 1 and
// 4, over built, Loaded and lazily opened cubes in every exceptions × τ
// configuration. ApplyDelta spreads its fold, re-mine and re-mark across
// the workers, and the paper's measure makes each cell's result a function
// of its own records and its parents' final graphs, so the two runs must
// save the same bytes after every step, report the same DeltaStats, keep the
// same sub-δ ledger — the one a fresh derivation gives — and end where a
// rebuild does. scripts/check.sh runs it with -race -count=10.
func TestApplyDeltaWorkersAgree(t *testing.T) {
	const base = 120
	ds := oracle.Dataset(53, 200)
	cuts := []int{base, 127, 145, 172, 200}
	for _, exceptions := range []bool{false, true} {
		for _, tau := range []float64{0, 0.5} {
			for _, open := range []string{"built", "loaded", "lazy"} {
				t.Run(fmt.Sprintf("exceptions=%t/tau=%g/%s", exceptions, tau, open), func(t *testing.T) {
					t.Parallel()
					cfg := core.Config{MinCount: 4, Epsilon: 0.05, Tau: tau, MineExceptions: exceptions, Plan: ds.DefaultPlan()}
					cfg.Plan.PathLevels = cfg.Plan.PathLevels[:2]
					built := oracle.Build(t, oracle.Prefix(ds.DB, base), cfg)
					type run struct {
						cube  *core.Cube
						db    *pathdb.DB
						snaps [][]byte
						stats []*core.DeltaStats
					}
					chain := func(workers int) run {
						r := run{cube: built.Fork(), db: oracle.Prefix(ds.DB, base)}
						if open != "built" {
							r.cube = oracle.Reopen(t, built, open == "lazy")
						}
						r.cube.Config.Workers = workers
						for i := 1; i < len(cuts); i++ {
							r.cube = r.cube.Fork()
							stats, err := core.ApplyDelta(r.cube, r.db, ds.DB.Records[cuts[i-1]:cuts[i]])
							if err != nil {
								t.Fatalf("workers %d, append to %d: %v", workers, cuts[i], err)
							}
							r.snaps = append(r.snaps, oracle.Save(t, r.cube))
							r.stats = append(r.stats, stats)
							if d := r.cube.LedgerDiff(r.db); d != "" {
								t.Errorf("workers %d, append to %d: the sub-δ ledger departs from a fresh derivation: %s", workers, cuts[i], d)
							}
						}
						return r
					}
					seq, par := chain(1), chain(4)
					for i := range seq.snaps {
						if d := oracle.Diff(seq.snaps[i], par.snaps[i]); d != "" {
							t.Errorf("append to %d: 4 workers save other bytes than 1: %s", cuts[i+1], d)
						}
						if *seq.stats[i] != *par.stats[i] {
							t.Errorf("append to %d: stats at 4 workers %+v, at 1 %+v", cuts[i+1], *par.stats[i], *seq.stats[i])
						}
					}
					if d := core.LedgerDiff(seq.cube.Ledger(), par.cube.Ledger()); d != "" {
						t.Errorf("the ledgers kept at 1 and 4 workers differ: %s", d)
					}
					if last := seq.stats[len(seq.stats)-1]; last.CellsTouched == 0 || last.CellsAdmitted == 0 ||
						(tau > 0) != (last.RedundancyRemarked > 0) || exceptions != (last.ExceptionsRemined > 0) {
						t.Errorf("the last append exercises too little: %+v", *last)
					}
					oracle.Check(t, "after the chain at 4 workers", par.cube, par.db, cfg)
				})
			}
		}
	}
}

// TestLazySiblingForksRemarkConcurrently forks one lazily opened cube twice
// and appends a different batch to each at once, with τ on and two workers
// each, while readers query the cube they were forked from. Every re-mark
// job reads parent cells through Cube.Cell, which on a lazy cube decodes
// through the LRU all of them share — with a budget small enough to evict,
// so decodes race decodes and evictions. No read may fail, and each fork
// must save what a rebuild over its own records saves. scripts/check.sh
// runs it with -race -count=10.
func TestLazySiblingForksRemarkConcurrently(t *testing.T) {
	const base, a, b = 140, 165, 195
	ds := oracle.Dataset(47, b)
	cfg := core.Config{MinCount: 4, Tau: 0.5, Plan: ds.DefaultPlan()}
	cfg.Plan.PathLevels = cfg.Plan.PathLevels[:2]
	path := oracle.File(t, oracle.Save(t, oracle.Build(t, oracle.Prefix(ds.DB, base), cfg)))
	parent := oracle.OpenLazy(t, path, core.LazyOptions{CacheBytes: 64 << 10})
	parent.Config.Workers = 2
	specs := parent.MaterializedSpecs()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				spec := specs[rng.Intn(len(specs))]
				cells := parent.Cuboid(spec).SortedCells()
				if len(cells) == 0 {
					t.Error("a reader of the parent found a cuboid without cells")
					return
				}
				want := cells[rng.Intn(len(cells))]
				if cell, ok := parent.Cell(spec, want.Values); !ok || cell.Count != want.Count {
					t.Errorf("cuboid %s: a listed cell reads back as %v", spec.Key(), cell)
					return
				}
				want.Graph.Columns()
			}
		}(int64(r))
	}

	forks := []*core.Cube{parent.Fork(), parent.Fork()}
	dbs := []*pathdb.DB{oracle.Prefix(ds.DB, base), oracle.Prefix(ds.DB, base)}
	batches := [][]pathdb.Record{ds.DB.Records[base:a], ds.DB.Records[a:b]}
	errs := make([]error, len(forks))
	stats := make([]*core.DeltaStats, len(forks))
	var wg sync.WaitGroup
	for i := range forks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[i], errs[i] = core.ApplyDelta(forks[i], dbs[i], batches[i])
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	if err := parent.LazyErr(); err != nil {
		t.Fatalf("a lazy read failed: %v", err)
	}
	for i, fork := range forks {
		if errs[i] != nil {
			t.Fatalf("fork %d: %v", i, errs[i])
		}
		if stats[i].RedundancyRemarked == 0 {
			t.Errorf("fork %d re-marked nothing: %+v", i, *stats[i])
		}
		oracle.Check(t, fmt.Sprintf("fork %d", i), fork, dbs[i], cfg)
	}
	if ls, _ := parent.LazyStats(); ls.Evictions == 0 {
		t.Errorf("the cache never evicted (%+v): the budget does not make decodes race evictions", ls)
	}
}
