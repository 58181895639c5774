package core_test

import (
	"fmt"
	"sync"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/oracle"
	"flowcube/internal/pathdb"
)

// TestLedgerMaintainedEqualsDerived runs short append chains over built,
// reloaded, lazily reopened and forked cubes. oracle.Run compares, after
// every step, the sub-δ ledger ApplyDelta keeps with one derived afresh from
// the records absorbed so far (export_test.go's LedgerDiff), and Expect
// holds the bytes to a rebuild. scripts/check.sh runs it with -race
// -count=10: derivation spreads over workers.
func TestLedgerMaintainedEqualsDerived(t *testing.T) {
	ds := oracle.Dataset(29, 200)
	cfg := core.Config{MinCount: 4, Tau: 0.5, Plan: ds.DefaultPlan(), Workers: 2}
	cfg.Plan.PathLevels = []pathdb.PathLevel{cfg.Plan.PathLevels[0]}
	appends := []oracle.Step{oracle.AppendTo(150), oracle.Fork(), oracle.AppendTo(175), oracle.AppendTo(200), oracle.Expect()}
	after := func(steps ...oracle.Step) []oracle.Step { return append(steps, appends...) }
	oracle.Run(t,
		oracle.Chain{Name: "built", DB: ds.DB, Cfg: cfg, Steps: after(oracle.BuildAt(120))},
		oracle.Chain{Name: "reloaded", DB: ds.DB, Cfg: cfg, Steps: after(oracle.BuildAt(120), oracle.Reload(false))},
		oracle.Chain{Name: "lazy", DB: ds.DB, Cfg: cfg, Steps: after(oracle.BuildAt(120), oracle.Reload(true))},
	)
}

// TestLazyAppendDerivesLedgerWithoutDecoding: the first append to a lazily
// opened snapshot derives the sub-δ ledger — with the record ids and stage
// transactions exception re-mining reads, when the cube mines exceptions —
// from the base records alone, so it decodes and copies exactly the cells
// the batch lands in — one per cuboid of each item level — and no cell for
// the derivation. The ledger it keeps equals the one an eager load derives.
func TestLazyAppendDerivesLedgerWithoutDecoding(t *testing.T) {
	const base, n = 200, 230
	ds := oracle.Dataset(37, n)
	for _, exceptions := range []bool{false, true} {
		t.Run(fmt.Sprintf("exceptions=%t", exceptions), func(t *testing.T) {
			cfg := core.Config{MinCount: 4, Epsilon: 0.05, MineExceptions: exceptions, Plan: ds.DefaultPlan(), Workers: 2}
			cfg.Plan.PathLevels = cfg.Plan.PathLevels[:2]
			db := oracle.Prefix(ds.DB, base)
			built := oracle.Build(t, db, cfg)
			eager, lazy := oracle.Twin(t, built, core.LazyOptions{CacheBytes: -1})
			if lazy.Ledger() != nil {
				t.Fatal("a lazily opened cube carries a ledger before its first append")
			}

			stats, err := core.ApplyDelta(lazy, db, ds.DB.Records[base:n])
			if err != nil {
				t.Fatal(err)
			}
			ls, _ := lazy.LazyStats()
			if stats.CellsTouched == 0 || stats.CellsAdmitted == 0 || stats.LedgerSize == 0 ||
				exceptions != (stats.ExceptionsRemined > 0) {
				t.Fatalf("the batch exercises nothing: %+v", stats)
			}
			if ls.DecodedCells != int64(stats.CellsTouched) || stats.CellsCopied != stats.CellsTouched {
				t.Errorf("the first append decoded %d cells and copied %d, want the %d it landed in",
					ls.DecodedCells, stats.CellsCopied, stats.CellsTouched)
			}

			edb := oracle.Prefix(ds.DB, base)
			if _, err := core.ApplyDelta(eager, edb, ds.DB.Records[base:n]); err != nil {
				t.Fatal(err)
			}
			if d := core.LedgerDiff(eager.Ledger(), lazy.Ledger()); d != "" {
				t.Errorf("the lazy cube's ledger departs from the eager one's: %s", d)
			}
			if d := lazy.LedgerDiff(db); d != "" {
				t.Errorf("the lazy cube's ledger departs from a fresh derivation: %s", d)
			}
			oracle.Check(t, "after the first append to a lazy cube", lazy, db, cfg)
		})
	}
}

// TestSiblingForksKeepExactLedgers forks one generation twice and appends a
// different batch to each, first one after the other, then concurrently,
// with exceptions off and on. The forks share their parent's sub-δ ledger —
// with the record ids and stage transactions, when the cube mines
// exceptions — so at most one of them may claim it and extend it in place;
// the other, and then the parent, must derive their own. Each fork must
// save what a rebuild over its own records saves and keep the ledger a
// fresh derivation gives, and the parent must save what it saved before.
// scripts/check.sh runs it with -race -count=10.
func TestSiblingForksKeepExactLedgers(t *testing.T) {
	const base, a, b, c = 140, 165, 195, 200
	ds := oracle.Dataset(43, c)
	batches := [][]pathdb.Record{ds.DB.Records[base:a], ds.DB.Records[a:b]}
	for _, concurrent := range []bool{false, true} {
		t.Run(map[bool]string{false: "sequential", true: "concurrent"}[concurrent], func(t *testing.T) {
			for _, exceptions := range []bool{false, true} {
				t.Run(fmt.Sprintf("exceptions=%t", exceptions), func(t *testing.T) {
					cfg := core.Config{MinCount: 4, Tau: 0.5, Epsilon: 0.05, MineExceptions: exceptions, Plan: ds.DefaultPlan(), Workers: 2}
					cfg.Plan.PathLevels = cfg.Plan.PathLevels[:2]
					// One in-place append derives the parent's ledger.
					db := oracle.Prefix(ds.DB, base-20)
					parent := oracle.Build(t, db, cfg)
					if _, err := core.ApplyDelta(parent, db, ds.DB.Records[base-20:base]); err != nil {
						t.Fatal(err)
					}
					before := oracle.Save(t, parent)

					forks := []*core.Cube{parent.Fork(), parent.Fork()}
					dbs := []*pathdb.DB{oracle.Prefix(db, base), oracle.Prefix(db, base)}
					errs := make([]error, len(forks))
					var wg sync.WaitGroup
					for i := range forks {
						apply := func() { _, errs[i] = core.ApplyDelta(forks[i], dbs[i], batches[i]) }
						if !concurrent {
							apply()
							continue
						}
						wg.Add(1)
						go func() { defer wg.Done(); apply() }()
					}
					wg.Wait()

					for i, fork := range forks {
						if errs[i] != nil {
							t.Fatalf("fork %d: %v", i, errs[i])
						}
						what := fmt.Sprintf("fork %d", i)
						oracle.Check(t, what, fork, dbs[i], cfg)
						checkOwnLedger(t, what, fork, dbs[i])
					}
					if forks[0].Ledger() == forks[1].Ledger() {
						t.Error("both forks kept one ledger")
					}
					if forks[0].Ledger() != parent.Ledger() && forks[1].Ledger() != parent.Ledger() {
						t.Error("neither fork extended the parent's ledger in place")
					}
					if d := oracle.Diff(before, oracle.Save(t, parent)); d != "" {
						t.Errorf("the parent changed under its forks: %s", d)
					}

					if _, err := core.ApplyDelta(parent, db, ds.DB.Records[b:c]); err != nil {
						t.Fatal(err)
					}
					oracle.Check(t, "the parent after its forks", parent, db, cfg)
					checkOwnLedger(t, "the parent after its forks", parent, db)
				})
			}
		})
	}
}

// checkOwnLedger fails unless the cube's ledger counts db — an empty
// append reports its size only then — and equals a fresh derivation.
func checkOwnLedger(t *testing.T, what string, c *core.Cube, db *pathdb.DB) {
	t.Helper()
	stats, err := core.ApplyDelta(c, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.LedgerSize == 0 {
		t.Errorf("%s: the ledger does not count the cube's %d records", what, db.Len())
	}
	if d := c.LedgerDiff(db); d != "" {
		t.Errorf("%s: the sub-δ ledger departs from a fresh derivation: %s", what, d)
	}
}
