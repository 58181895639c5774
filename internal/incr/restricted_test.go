package incr_test

import (
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/datagen"
	"flowcube/internal/incr"
)

// TestRestrictedRemineMatchesFull pins the re-miner's two inputs against
// each other directly: the same batch folded into a warm-cache clone (cached
// conditions, the batch's records) and a cache-dropped clone (no conditions,
// every record of the cell) must produce identical Save bytes, and the stats
// must show which one ran. The digest property tests in incr_test.go already
// exercise the warm case implicitly — Build warms the condition cache — but
// this test fails loudly if the cache stops discriminating the two.
func TestRestrictedRemineMatchesFull(t *testing.T) {
	for _, variant := range []struct {
		name        string
		singleStage bool
	}{
		{"conds-only", false},
		{"singlestage", true},
	} {
		variant := variant
		t.Run(variant.name, func(t *testing.T) {
			t.Parallel()
			ds := datagen.MustGenerate(genConfig(41, 300))
			cfg := core.Config{
				MinCount: 4, Epsilon: 0.05, Tau: 0.6, Plan: ds.DefaultPlan(),
				MineExceptions: true, SingleStageExceptions: variant.singleStage,
				DeltaLedger: true, Workers: 2,
			}
			const split = 250
			db := dbWith(ds, split)
			base, err := core.Build(db, cfg)
			if err != nil {
				t.Fatal(err)
			}
			batch := ds.DB.Records[split:]

			warm := base.Fork()
			warmDB := dbWith(ds, split)
			warmStats, err := incr.ApplyDelta(warm, warmDB, batch)
			if err != nil {
				t.Fatalf("restricted fold: %v", err)
			}

			cold := base.Fork()
			cold.DropCondCache()
			coldDB := dbWith(ds, split)
			coldStats, err := incr.ApplyDelta(cold, coldDB, batch)
			if err != nil {
				t.Fatalf("full fold: %v", err)
			}

			if got, want := saveDigest(t, warm), saveDigest(t, cold); got != want {
				t.Errorf("restricted digest %s != full digest %s", got, want)
			}
			if warmStats.ExceptionsRemined == 0 {
				t.Fatal("batch touched no exception cells; workload too small to discriminate the paths")
			}
			// The warm clone's existing cells re-mine restricted (admitted
			// cells have nothing cached yet); the cold clone never does.
			if warmStats.CellsReminedRestricted != warmStats.ExceptionsRemined-warmStats.CellsAdmitted {
				t.Errorf("restricted stats: %d of %d cells restricted with %d admitted",
					warmStats.CellsReminedRestricted, warmStats.ExceptionsRemined, warmStats.CellsAdmitted)
			}
			if warmStats.CellsReminedRestricted == 0 {
				t.Error("warm cache fold never took the restricted path")
			}
			if warmStats.PrefixesRemined == 0 {
				t.Error("restricted fold reports zero moved prefixes")
			}
			if coldStats.CellsReminedRestricted != 0 || coldStats.PrefixesRemined != 0 {
				t.Errorf("cold cache fold reports restricted work: %+v", coldStats)
			}
		})
	}
}

// TestRestrictedRemineChained folds several batches through the same warm
// cube — the cache must stay exact as conditions accumulate — and checks
// the final state against one full build of the union.
func TestRestrictedRemineChained(t *testing.T) {
	ds := datagen.MustGenerate(genConfig(43, 280))
	cfg := core.Config{
		MinCount: 4, Epsilon: 0.05, Plan: ds.DefaultPlan(),
		MineExceptions: true, SingleStageExceptions: true, DeltaLedger: true, Workers: 2,
	}
	full, err := core.Build(ds.DB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := saveDigest(t, full)

	splits := []int{180, 215, 250, 280}
	db := dbWith(ds, splits[0])
	cube, err := core.Build(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	restricted := 0
	for i := 1; i < len(splits); i++ {
		stats, err := incr.ApplyDelta(cube, db, ds.DB.Records[splits[i-1]:splits[i]])
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		restricted += stats.CellsReminedRestricted
	}
	if got := saveDigest(t, cube); got != want {
		t.Errorf("chained restricted digest %s != full digest %s", got, want)
	}
	if restricted == 0 {
		t.Error("no batch took the restricted path")
	}
}

// TestAdmittedCellWarmsCache folds a batch that pushes sub-δ combinations
// over the threshold: every cell it admits must leave the fold with a
// condition cache entry, so a second batch landing in the same cells re-mines
// all of them restricted, and the result is still a full build of the union.
func TestAdmittedCellWarmsCache(t *testing.T) {
	ds := datagen.MustGenerate(genConfig(41, 300))
	cfg := core.Config{
		MinCount: 4, Epsilon: 0.05, Plan: ds.DefaultPlan(),
		MineExceptions: true, SingleStageExceptions: true, DeltaLedger: true, Workers: 2,
	}
	const split = 250
	db := dbWith(ds, split)
	cube, err := core.Build(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	existed := make(map[core.CellRefKey]bool)
	for specKey, cb := range cube.Cuboids {
		for id := range cb.Cells {
			existed[core.CellRefKey{Spec: specKey, ID: id}] = true
		}
	}
	batch := ds.DB.Records[split:]

	first, err := incr.ApplyDelta(cube, db, batch)
	if err != nil {
		t.Fatal(err)
	}
	if first.CellsAdmitted == 0 {
		t.Fatal("batch admitted no cell; workload too small to exercise admission")
	}
	admitted := 0
	for specKey, cb := range cube.Cuboids {
		for id, cell := range cb.Cells {
			if existed[core.CellRefKey{Spec: specKey, ID: id}] {
				continue
			}
			admitted++
			if _, warm := cell.CachedConds(); !warm {
				t.Errorf("admitted cell %v of %s has a cold condition cache", cell.Values, specKey)
			}
		}
	}
	if admitted != first.CellsAdmitted {
		t.Errorf("%d new cells in the cube, stats report %d admitted", admitted, first.CellsAdmitted)
	}

	// The same records again land in every cell the first fold touched or
	// admitted; whatever the repeat admits on top is the only cold work left.
	second, err := incr.ApplyDelta(cube, db, batch)
	if err != nil {
		t.Fatal(err)
	}
	if second.CellsTouched != first.CellsTouched+first.CellsAdmitted {
		t.Errorf("second fold touched %d cells, want the first fold's %d touched + %d admitted",
			second.CellsTouched, first.CellsTouched, first.CellsAdmitted)
	}
	if second.CellsReminedRestricted != second.ExceptionsRemined-second.CellsAdmitted {
		t.Errorf("second fold: %d of %d cells restricted with %d admitted",
			second.CellsReminedRestricted, second.ExceptionsRemined, second.CellsAdmitted)
	}

	full, err := core.Build(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := saveDigest(t, cube), saveDigest(t, full); got != want {
		t.Errorf("digest after admitting folds %s != full build over the union %s", got, want)
	}
}
