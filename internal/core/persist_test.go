package core_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/flowgraph"
	"flowcube/internal/hierarchy"
	"flowcube/internal/oracle"
)

// TestSaveLoadRoundTrip: a loaded cube re-saves the bytes it was loaded
// from, answers queries, roll-up inference included, as the built cube
// does, and still supports redundancy re-marking.
func TestSaveLoadRoundTrip(t *testing.T) {
	ex, cube := oracle.Table1(t, oracle.Cuts, oracle.Mined(0.5))
	loaded := oracle.Reopen(t, cube, false)
	if loaded.MinCount() != cube.MinCount() || loaded.NumCells() != cube.NumCells() {
		t.Errorf("loaded cube: minCount %d, %d cells; want %d, %d", loaded.MinCount(), loaded.NumCells(), cube.MinCount(), cube.NumCells())
	}
	oracle.Same(t, "loaded cube", cube, loaded)

	// Queries behave identically, including roll-up inference.
	spec := core.CuboidSpec{Item: core.ItemLevel{3, 2}, PathLevel: 0}
	values := []hierarchy.NodeID{ex.Product.MustLookup("sandals"), ex.Brand.MustLookup("nike")}
	a1, err1 := cube.Answer(context.Background(), core.Query{Spec: spec, Values: values})
	a2, err2 := loaded.Answer(context.Background(), core.Query{Spec: spec, Values: values})
	if err1 != nil || err2 != nil || a1.Cells[0].Exact != a2.Cells[0].Exact {
		t.Fatalf("query behaviour changed after load: %v / %v", err1, err2)
	}
	if d := flowgraph.Divergence(a1.Cells[0].Graph, a2.Cells[0].Graph); d > 1e-12 {
		t.Errorf("inferred graphs diverge by %g", d)
	}

	// The loaded cube still supports redundancy re-marking.
	loaded.MarkRedundancy(0.5)
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := core.Load(strings.NewReader("not a gob stream")); err == nil {
		t.Errorf("garbage accepted")
	}
	if _, err := core.Load(bytes.NewReader(nil)); err == nil {
		t.Errorf("empty stream accepted")
	}
}

func TestSaveLoadPreservesExceptionContent(t *testing.T) {
	ex, cube := oracle.Table1(t, oracle.Cuts, oracle.Mined(0))
	spec := core.CuboidSpec{Item: core.ItemLevel{2, 2}, PathLevel: 0}
	values := []hierarchy.NodeID{ex.Product.MustLookup("outerwear"), ex.Brand.MustLookup("nike")}
	orig, _ := cube.Cell(spec, values)
	if len(orig.Graph.Exceptions()) == 0 {
		t.Fatal("fixture has no exceptions to test")
	}

	cell, ok := oracle.Reopen(t, cube, false).Cell(spec, values)
	if !ok {
		t.Fatal("cell missing after load")
	}
	// The cell digest covers the flowgraph's exceptions: support, node,
	// condition and transitions.
	if core.CellDigest(cell) != core.CellDigest(orig) {
		t.Errorf("the loaded cell differs from the built one (%d exceptions, want %d)",
			len(cell.Graph.Exceptions()), len(orig.Graph.Exceptions()))
	}
}
