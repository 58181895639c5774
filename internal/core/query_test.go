package core_test

import (
	"context"
	"slices"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/hierarchy"
	"flowcube/internal/oracle"
)

// TestAnswerFallbackPrefersClosestAncestor pins the breadth-first inference
// order: when a 1-step and a 2-step generalization of a missing cell are
// both materialized, the 1-step ancestor must answer.
func TestAnswerFallbackPrefersClosestAncestor(t *testing.T) {
	ex, cube := oracle.Table1(t, oracle.Cuts, core.Config{MinCount: 2, Cuboids: []core.CuboidSpec{
		// The queried cuboid ⟨(2,2)⟩ is deliberately not materialized.
		{Item: core.ItemLevel{1, 2}, PathLevel: 0}, // 1 step up in product
		{Item: core.ItemLevel{2, 1}, PathLevel: 0}, // 1 step up in brand
		{Item: core.ItemLevel{1, 1}, PathLevel: 0}, // 2 steps up
		{Item: core.ItemLevel{0, 0}, PathLevel: 0}, // apex
	}})
	spec := core.CuboidSpec{Item: core.ItemLevel{2, 2}, PathLevel: 0}
	values := []hierarchy.NodeID{
		ex.Product.MustLookup("shoes"), ex.Brand.MustLookup("nike"),
	}
	a, err := cube.Answer(context.Background(), core.Query{Spec: spec, Values: values})
	if err != nil {
		t.Fatalf("query failed entirely: %v", err)
	}
	g, src := a.Cells[0].Graph, a.Cells[0].Source
	if a.Cells[0].Exact {
		t.Fatal("query reported exact for an unmaterialized cuboid")
	}
	// Both 1-step ancestors exist: (clothing, nike) and (shoes, sports).
	// BFS must return one of them, never the 2-step (clothing, sports) or
	// the apex.
	wantA := []hierarchy.NodeID{ex.Product.MustLookup("clothing"), ex.Brand.MustLookup("nike")}
	wantB := []hierarchy.NodeID{ex.Product.MustLookup("shoes"), ex.Brand.MustLookup("sports")}
	if !slices.Equal(src.Values, wantA) && !slices.Equal(src.Values, wantB) {
		t.Errorf("answered from %s, want a 1-step generalization (clothing,nike) or (shoes,sports)",
			core.FormatCell(cube.Schema, src.Values))
	}
	if g == nil || g.Paths() != src.Count {
		t.Errorf("graph paths != source count %d", src.Count)
	}

	// Remove both 1-step cuboids: the 2-step generalization must now win
	// over the apex.
	cube.DropCuboid(core.CuboidSpec{Item: core.ItemLevel{1, 2}, PathLevel: 0})
	cube.DropCuboid(core.CuboidSpec{Item: core.ItemLevel{2, 1}, PathLevel: 0})
	a, err = cube.Answer(context.Background(), core.Query{Spec: spec, Values: values})
	if err != nil || a.Cells[0].Exact {
		t.Fatalf("2-step query failed: err=%v answer=%+v", err, a)
	}
	src = a.Cells[0].Source
	want2 := []hierarchy.NodeID{ex.Product.MustLookup("clothing"), ex.Brand.MustLookup("sports")}
	if !slices.Equal(src.Values, want2) {
		t.Errorf("answered from %s, want the 2-step (clothing,sports) before the apex",
			core.FormatCell(cube.Schema, src.Values))
	}
}

// TestAnswerFallbackFullyCompressedReachesApex pins the other end of the
// inference chain: when every intermediate cell is compressed away as
// redundant, queries drain all the way to the apex.
func TestAnswerFallbackFullyCompressedReachesApex(t *testing.T) {
	ex, cube := oracle.Table1(t, oracle.Cuts, core.Config{MinCount: 2})

	// Simulate maximal compression: every cell with a concrete dimension
	// value is redundant; only apex-item-level cells survive.
	for _, cb := range cube.Cuboids {
		concrete := false
		for _, l := range cb.Spec.Item {
			if l > 0 {
				concrete = true
			}
		}
		if !concrete {
			continue
		}
		for _, cell := range cb.Cells {
			cell.Redundant = true
		}
	}
	if removed := cube.Compress(); removed == 0 {
		t.Fatal("nothing compressed; fixture broken")
	}

	spec := core.CuboidSpec{Item: core.ItemLevel{2, 2}, PathLevel: 0}
	values := []hierarchy.NodeID{
		ex.Product.MustLookup("shoes"), ex.Brand.MustLookup("nike"),
	}
	a, err := cube.Answer(context.Background(), core.Query{Spec: spec, Values: values})
	if err != nil {
		t.Fatalf("fully compressed cube failed to answer: %v", err)
	}
	g, src := a.Cells[0].Graph, a.Cells[0].Source
	if a.Cells[0].Exact {
		t.Error("compressed cell reported exact")
	}
	for d, v := range src.Values {
		if v != hierarchy.Root {
			t.Errorf("dimension %d answered from node %d, want the apex '*'", d, v)
		}
	}
	if g.Paths() != int64(ex.DB.Len()) {
		t.Errorf("apex graph has %d paths, want the whole database (%d)", g.Paths(), ex.DB.Len())
	}
}

// TestMarkRedundancySentinel pins the Similarity semantics: cells with no
// materialized parents keep SimilarityUnknown instead of a fabricated
// ϕ = 1 that would read as "maximally redundant" in summaries and
// persisted output.
func TestMarkRedundancySentinel(t *testing.T) {
	// Keep only the leaf-level cuboid: its cells have no
	// materialized item-lattice parents to compare against.
	_, cube := oracle.Table1(t, oracle.Cuts, core.Config{MinCount: 2, Cuboids: []core.CuboidSpec{
		{Item: core.ItemLevel{2, 2}, PathLevel: 0},
	}})
	if n := cube.MarkRedundancy(0.5); n != 0 {
		t.Errorf("MarkRedundancy marked %d cells redundant with no parents materialized", n)
	}
	cb := cube.Cuboid(core.CuboidSpec{Item: core.ItemLevel{2, 2}, PathLevel: 0})
	if cb == nil || len(cb.Cells) == 0 {
		t.Fatal("fixture cuboid empty")
	}
	for _, cell := range cb.Cells {
		if cell.Similarity != core.SimilarityUnknown {
			t.Errorf("cell %v similarity = %v, want SimilarityUnknown", cell.Values, cell.Similarity)
		}
		if cell.Redundant {
			t.Errorf("cell %v marked redundant with no parents", cell.Values)
		}
	}

	// With the full lattice materialized, real similarities in (0, 1]
	// appear for cells with parents — and the apex keeps the sentinel.
	ex2, cube2 := oracle.Table1(t, oracle.Cuts, core.Config{MinCount: 2})
	cube2.MarkRedundancy(0.5)
	spec := core.CuboidSpec{Item: core.ItemLevel{2, 2}, PathLevel: 0}
	cell, ok := cube2.Cell(spec, []hierarchy.NodeID{
		ex2.Product.MustLookup("shoes"), ex2.Brand.MustLookup("nike"),
	})
	if !ok {
		t.Fatal("(shoes, nike) missing")
	}
	if cell.Similarity <= 0 || cell.Similarity > 1 {
		t.Errorf("measured similarity = %v, want in (0, 1]", cell.Similarity)
	}
	apexSpec := core.CuboidSpec{Item: core.ItemLevel{0, 0}, PathLevel: 0}
	apex, ok := cube2.Cell(apexSpec, []hierarchy.NodeID{hierarchy.Root, hierarchy.Root})
	if !ok {
		t.Fatal("apex cell missing")
	}
	if apex.Similarity != core.SimilarityUnknown {
		t.Errorf("apex similarity = %v, want SimilarityUnknown", apex.Similarity)
	}
}
