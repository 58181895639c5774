package core_test

import (
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/oracle"
)

// TestAdmittedCellWarmsCache folds a batch that pushes sub-δ combinations
// over the threshold: every cell it admits must leave the fold with a
// condition cache entry, so a second batch landing in the same cells re-mines
// all of them restricted, and the result is still a full build of the union.
func TestAdmittedCellWarmsCache(t *testing.T) {
	t.Parallel()
	ds := oracle.Dataset(41, 300)
	cfg := core.Config{
		MinCount: 4, Epsilon: 0.05, Plan: ds.DefaultPlan(),
		MineExceptions: true, SingleStageExceptions: true, Workers: 2,
	}
	const split = 250
	db := oracle.Prefix(ds.DB, split)
	cube := oracle.Build(t, db, cfg)
	existed := make(map[core.CellRefKey]bool)
	for specKey, cb := range cube.Cuboids {
		for id := range cb.Cells {
			existed[core.CellRefKey{Spec: specKey, ID: id}] = true
		}
	}
	batch := ds.DB.Records[split:]

	first, err := core.ApplyDelta(cube, db, batch)
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
	second, err := core.ApplyDelta(cube, db, batch)
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

	oracle.Check(t, "after admitting folds", cube, db, cfg)
}
