package core_test

import (
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/hierarchy"
	"flowcube/internal/oracle"
	"flowcube/internal/pathdb"
)

func TestCubeValidate(t *testing.T) {
	ex, cube := oracle.Table1(t, oracle.Cuts, oracle.Mined(0))
	if err := cube.Validate(); err != nil {
		t.Fatalf("fresh cube invalid: %v", err)
	}

	// Still valid after an incremental append...
	rec := pathdb.Record{
		Dims: []hierarchy.NodeID{ex.Product.MustLookup("tennis"), ex.Brand.MustLookup("nike")},
		Path: pathdb.Path{{Location: ex.Location.MustLookup("f"), Duration: 1}},
	}
	if _, err := core.ApplyDelta(cube, ex.DB, []pathdb.Record{rec}); err != nil {
		t.Fatal(err)
	}
	if err := cube.Validate(); err != nil {
		t.Fatalf("cube invalid after append: %v", err)
	}

	// ... and after a save/load round trip.
	loaded := oracle.Reopen(t, cube, false)
	if err := loaded.Validate(); err != nil {
		t.Fatalf("loaded cube invalid: %v", err)
	}
}

func TestCubeValidateCatchesCorruption(t *testing.T) {
	_, cube := oracle.Table1(t, oracle.Cuts, core.Config{MinCount: 2})
	for _, cb := range cube.Cuboids {
		for _, cell := range cb.Cells {
			cell.Count++ // desync count from graph
			if err := cube.Validate(); err == nil {
				t.Fatalf("corrupted cell not detected")
			}
			cell.Count--
			return
		}
	}
}

func TestTopExceptions(t *testing.T) {
	_, cube := oracle.Table1(t, oracle.Cuts, oracle.Mined(0))
	all := cube.TopExceptions(0)
	if len(all) == 0 {
		t.Fatal("no exceptions ranked")
	}
	for i := 1; i < len(all); i++ {
		if core.ExceptionSeverity(all[i].Exception) > core.ExceptionSeverity(all[i-1].Exception) {
			t.Fatalf("ranking not sorted at %d", i)
		}
	}
	top3 := cube.TopExceptions(3)
	if len(top3) != 3 {
		t.Fatalf("TopExceptions(3) returned %d", len(top3))
	}
	if core.ExceptionSeverity(top3[0].Exception) != core.ExceptionSeverity(all[0].Exception) {
		t.Errorf("truncation changed the top")
	}
	// Determinism.
	again := cube.TopExceptions(3)
	for i := range top3 {
		if core.ExceptionSeverity(top3[i].Exception) != core.ExceptionSeverity(again[i].Exception) || top3[i].Support != again[i].Support {
			t.Fatalf("ranking not deterministic")
		}
	}
}
