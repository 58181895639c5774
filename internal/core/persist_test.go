package core_test

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/flowgraph"
	"flowcube/internal/hierarchy"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	ex, cube := buildExample(t, core.Config{
		MinCount:              2,
		Epsilon:               0.1,
		Tau:                   0.5,
		MineExceptions:        true,
		SingleStageExceptions: true,
	})
	cube.MarkRedundancy(0.5)

	var buf bytes.Buffer
	if err := cube.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if loaded.MinCount() != cube.MinCount() {
		t.Errorf("minCount: %d vs %d", loaded.MinCount(), cube.MinCount())
	}
	if len(loaded.Cuboids) != len(cube.Cuboids) {
		t.Fatalf("cuboids: %d vs %d", len(loaded.Cuboids), len(cube.Cuboids))
	}
	if loaded.NumCells() != cube.NumCells() {
		t.Fatalf("cells: %d vs %d", loaded.NumCells(), cube.NumCells())
	}

	// Every cell round-trips: count, flags, and an identical flowgraph
	// model (zero divergence both ways).
	for key, cb := range cube.Cuboids {
		lcb := loaded.Cuboids[key]
		if lcb == nil {
			t.Fatalf("cuboid %s missing after load", key)
		}
		orig := cb.SortedCells()
		got := lcb.SortedCells()
		if len(orig) != len(got) {
			t.Fatalf("cuboid %s: %d cells vs %d", key, len(got), len(orig))
		}
		for i := range orig {
			o, l := orig[i], got[i]
			if o.Count != l.Count || o.Redundant != l.Redundant ||
				math.Abs(o.Similarity-l.Similarity) > 1e-12 {
				t.Errorf("cuboid %s cell %d metadata mismatch", key, i)
			}
			if o.Graph == nil {
				continue
			}
			if l.Graph.Paths() != o.Graph.Paths() {
				t.Errorf("cuboid %s cell %d path count mismatch", key, i)
			}
			if d := flowgraph.Divergence(o.Graph, l.Graph) + flowgraph.Divergence(l.Graph, o.Graph); d > 1e-12 {
				t.Errorf("cuboid %s cell %d graphs diverge by %g", key, i, d)
			}
			if len(l.Graph.Exceptions()) != len(o.Graph.Exceptions()) {
				t.Errorf("cuboid %s cell %d exceptions: %d vs %d",
					key, i, len(l.Graph.Exceptions()), len(o.Graph.Exceptions()))
			}
		}
	}

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
	ex, cube := buildExample(t, core.Config{
		MinCount:              2,
		Epsilon:               0.1,
		MineExceptions:        true,
		SingleStageExceptions: true,
	})
	spec := core.CuboidSpec{Item: core.ItemLevel{2, 2}, PathLevel: 0}
	values := []hierarchy.NodeID{ex.Product.MustLookup("outerwear"), ex.Brand.MustLookup("nike")}
	orig, _ := cube.Cell(spec, values)
	if len(orig.Graph.Exceptions()) == 0 {
		t.Fatal("fixture has no exceptions to test")
	}

	var buf bytes.Buffer
	if err := cube.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cell, ok := loaded.Cell(spec, values)
	if !ok {
		t.Fatal("cell missing after load")
	}
	ox, lx := orig.Graph.Exceptions(), cell.Graph.Exceptions()
	if len(ox) != len(lx) {
		t.Fatalf("exception count: %d vs %d", len(lx), len(ox))
	}
	for i := range ox {
		if ox[i].Support != lx[i].Support {
			t.Errorf("exception %d support mismatch", i)
		}
		if ox[i].Transitions.String() != lx[i].Transitions.String() {
			t.Errorf("exception %d transitions mismatch", i)
		}
		if len(ox[i].Condition) != len(lx[i].Condition) {
			t.Errorf("exception %d condition mismatch", i)
		}
		if ox[i].Node.Depth != lx[i].Node.Depth || ox[i].Node.Location != lx[i].Node.Location {
			t.Errorf("exception %d node mismatch", i)
		}
	}
}
