package core_test

import (
	"math/rand"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/datagen"
	"flowcube/internal/oracle"
	"flowcube/internal/paperex"
)

// stepTable is the byte-identity contract as data: chains of builds,
// reloads, forks, appends, abandoned folds and merges whose candidate must
// save, wherever a row says Expect, exactly what one eager Build over the
// records it has absorbed saves. Rows are keyed by the test that runs them;
// scripts/check.sh runs them under -race.
func stepTable() map[string][]oracle.Chain {
	onPlan := func(ds *datagen.Dataset, cfg core.Config) core.Config {
		cfg.Plan = ds.DefaultPlan()
		return cfg
	}
	// Three random split points of 260 records, each appended back to the
	// whole. 336 locations in the wide dataset: condition pins whose
	// locations differ by 256 must stay apart in the condition cache, or an
	// append skips a newly frequent one.
	rng := rand.New(rand.NewSource(11))
	var splits [][]oracle.Step
	for range 3 {
		splits = append(splits, []oracle.Step{oracle.BuildAt(1 + rng.Intn(259)), oracle.AppendTo(260), oracle.Expect()})
	}
	ds7, wide := oracle.Dataset(7, 260), oracle.Gen(1, 260)
	wide.LocFanouts, wide.NumSequences = [2]int{16, 20}, 12
	dsWide := datagen.MustGenerate(wide)
	exceptions := core.Config{MinCount: 4, Epsilon: 0.05, Tau: 0.6, MineExceptions: true, Workers: 2}

	ds17, ds23 := oracle.Dataset(17, 220), oracle.Dataset(23, 220)
	var loaded []oracle.Chain
	for name, cfg := range map[string]core.Config{
		"exceptions off": {MinCount: 4, Tau: 0.5},
		"exceptions on":  {MinCount: 4, Epsilon: 0.05, MineExceptions: true},
		"exceptions+single-stage+tau": {MinCount: 4, Epsilon: 0.05, Tau: 0.5,
			MineExceptions: true, SingleStageExceptions: true},
	} {
		cfg.Workers = 2
		loaded = append(loaded, oracle.Chain{Name: name, DB: ds17.DB, Cfg: onPlan(ds17, cfg), Steps: []oracle.Step{
			oracle.BuildAt(170), oracle.Branch(
				[]oracle.Step{oracle.Reload(false), oracle.AppendTo(195), oracle.AppendTo(220), oracle.Expect()},
				[]oracle.Step{oracle.Reload(true), oracle.AppendTo(195), oracle.AppendTo(220), oracle.Expect()}),
		}})
	}
	ds13, ds41, ds43 := oracle.Dataset(13, 240), oracle.Dataset(41, 300), oracle.Dataset(43, 280)
	ex, full := paperex.New(), oracle.Mined(0.5)
	full.Plan = oracle.Cuts(ex)
	return map[string][]oracle.Chain{
		"TestApplyDeltaMatchesFullBuild": {
			{Name: "exceptions+ledger+tau", DB: ds7.DB, Cfg: onPlan(ds7, exceptions), Steps: []oracle.Step{oracle.Branch(splits...)}},
			{Name: "singlestage+ledger", DB: ds7.DB, Cfg: onPlan(ds7, core.Config{MinCount: 4, Epsilon: 0.1,
				MineExceptions: true, SingleStageExceptions: true, Workers: 2}), Steps: []oracle.Step{oracle.Branch(splits...)}},
			{Name: "plain-noledger", DB: ds7.DB, Cfg: onPlan(ds7, core.Config{MinCount: 5, Tau: 0.5, Workers: 2}),
				Steps: []oracle.Step{oracle.Branch(splits...)}},
			{Name: "wide-locations", DB: dsWide.DB, Cfg: onPlan(dsWide, exceptions), Steps: []oracle.Step{oracle.Branch(splits...)}},
		},
		// Several batches chain: base + batch1 + batch2 + batch3.
		"TestApplyDeltaMultipleBatches": {{Name: "140+35+35+30", DB: ds13.DB, Cfg: onPlan(ds13, exceptions), Steps: []oracle.Step{
			oracle.BuildAt(140), oracle.AppendTo(175), oracle.AppendTo(210), oracle.AppendTo(240), oracle.Expect(),
		}}},
		// The snapshot round trip carries enough state for an append: the
		// exception-mining switches. The sub-δ ledger is not in it; the first
		// append derives it and the second keeps it.
		"TestApplyDeltaOnLoadedCube": loaded,
		// The serving path: a dropped commit, then a patched fork, while the
		// original stays bit-identical.
		"TestApplyDeltaOnClone": {{Name: "fork", DB: ds23.DB, Cfg: onPlan(ds23, core.Config{MinCount: 4, Epsilon: 0.05, Tau: 0.5,
			MineExceptions: true, Workers: 2}), Steps: []oracle.Step{
			oracle.BuildAt(180), oracle.Abandon(20), oracle.Fork(), oracle.AppendTo(220), oracle.Expect(),
		}}},
		// The re-miner's two inputs against each other: one batch folded into
		// a warm-cache fork (cached conditions, the batch's records) and into
		// a cache-dropped fork (no conditions, every record of the cell) must
		// both save a full build's bytes, and the stats must show which one
		// ran. The other rows exercise the warm case implicitly — Build warms
		// the condition cache — but this one fails loudly if the cache stops
		// discriminating the two.
		"TestRestrictedRemineMatchesFull": {{Name: "conds-only", DB: ds41.DB, Cfg: onPlan(ds41, exceptions), Steps: []oracle.Step{
			oracle.BuildAt(250), oracle.Branch(
				[]oracle.Step{oracle.Fork(), oracle.AppendTo(300), oracle.Expect()},
				[]oracle.Step{oracle.Fork(), oracle.DropConds(), oracle.AppendTo(300), oracle.Expect()}),
		}, Stats: func(t *testing.T, stats []*core.DeltaStats) {
			warm, cold := stats[0], stats[1]
			if warm.ExceptionsRemined == 0 {
				t.Fatal("batch touched no exception cells; workload too small to discriminate the paths")
			}
			// The warm fork's existing cells re-mine restricted (admitted
			// cells have nothing cached yet); the cold fork never does.
			if warm.CellsReminedRestricted != warm.ExceptionsRemined-warm.CellsAdmitted || warm.CellsReminedRestricted == 0 {
				t.Errorf("restricted stats: %d of %d cells restricted with %d admitted",
					warm.CellsReminedRestricted, warm.ExceptionsRemined, warm.CellsAdmitted)
			}
			if warm.PrefixesRemined == 0 {
				t.Error("restricted fold reports zero moved prefixes")
			}
			if cold.CellsReminedRestricted != 0 || cold.PrefixesRemined != 0 {
				t.Errorf("cold cache fold reports restricted work: %+v", cold)
			}
		}}},
		// The condition cache must stay exact as conditions accumulate over
		// several batches folded through the same warm cube.
		"TestRestrictedRemineChained": {{Name: "warm", DB: ds43.DB, Cfg: onPlan(ds43, core.Config{MinCount: 4, Epsilon: 0.05,
			MineExceptions: true, SingleStageExceptions: true, Workers: 2}), Steps: []oracle.Step{
			oracle.BuildAt(180), oracle.AppendTo(215), oracle.AppendTo(250), oracle.AppendTo(280), oracle.Expect(),
		}, Stats: func(t *testing.T, stats []*core.DeltaStats) {
			restricted := 0
			for _, s := range stats {
				restricted += s.CellsReminedRestricted
			}
			if restricted == 0 {
				t.Error("no batch took the restricted path")
			}
		}}},
		// Splitting and merging is lossless at the byte level: what lets a
		// sharded cluster be verified against, and rebuilt into, its unsplit
		// snapshot. A merged cube carries no sub-δ ledger, so its first
		// append derives one.
		"TestMergeRestoresSaveDigest": {
			{Name: "3 parts", DB: ex.DB, Cfg: full, Steps: []oracle.Step{
				oracle.BuildAt(ex.DB.Len()), oracle.SplitMerge(3), oracle.Expect(),
			}},
			{Name: "3 parts, then appends", DB: ex.DB, Cfg: full, Steps: []oracle.Step{
				oracle.BuildAt(ex.DB.Len() - 4), oracle.SplitMerge(3), oracle.AppendTo(ex.DB.Len() - 2),
				oracle.AppendTo(ex.DB.Len()), oracle.Expect(),
			}},
		},
	}
}

func TestApplyDeltaMatchesFullBuild(t *testing.T)  { oracle.Run(t, stepTable()[t.Name()]...) }
func TestApplyDeltaMultipleBatches(t *testing.T)   { oracle.Run(t, stepTable()[t.Name()]...) }
func TestApplyDeltaOnLoadedCube(t *testing.T)      { oracle.Run(t, stepTable()[t.Name()]...) }
func TestApplyDeltaOnClone(t *testing.T)           { oracle.Run(t, stepTable()[t.Name()]...) }
func TestRestrictedRemineChained(t *testing.T)     { oracle.Run(t, stepTable()[t.Name()]...) }
func TestRestrictedRemineMatchesFull(t *testing.T) { oracle.Run(t, stepTable()[t.Name()]...) }
func TestMergeRestoresSaveDigest(t *testing.T)     { oracle.Run(t, stepTable()[t.Name()]...) }
