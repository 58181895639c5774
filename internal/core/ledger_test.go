package core_test

import (
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
// opened snapshot derives the sub-δ ledger from the base records alone, so
// it decodes exactly the cells the batch lands in — one per cuboid of each
// item level — and no cell for the derivation. The ledger it keeps equals
// the one an eager load derives.
func TestLazyAppendDerivesLedgerWithoutDecoding(t *testing.T) {
	const base, n = 200, 230
	ds := oracle.Dataset(37, n)
	cfg := core.Config{MinCount: 4, Plan: ds.DefaultPlan(), Workers: 2}
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
	if stats.CellsTouched == 0 || stats.CellsAdmitted == 0 || stats.LedgerSize == 0 {
		t.Fatalf("the batch exercises nothing: %+v", stats)
	}
	if ls.DecodedCells != int64(stats.CellsTouched) {
		t.Errorf("the first append decoded %d cells, want the %d it landed in", ls.DecodedCells, stats.CellsTouched)
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
}
