package core_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/datagen"
	"flowcube/internal/flowgraph"
	"flowcube/internal/hierarchy"
	"flowcube/internal/oracle"
	"flowcube/internal/paperex"
)

func TestBuildIcebergCells(t *testing.T) {
	ex, cube := oracle.Table1(t, oracle.Cuts, core.Config{MinCount: 2})

	spec := core.CuboidSpec{Item: core.ItemLevel{2, 2}, PathLevel: 0}
	want := []struct {
		product, brand string
		count          int64
	}{
		{"shoes", "nike", 3},
		{"shoes", "adidas", 2},
		{"outerwear", "nike", 3},
	}
	for _, w := range want {
		cell, ok := cube.Cell(spec, []hierarchy.NodeID{
			ex.Product.MustLookup(w.product), ex.Brand.MustLookup(w.brand),
		})
		if !ok {
			t.Errorf("cell (%s,%s) missing", w.product, w.brand)
			continue
		}
		if cell.Count != w.count {
			t.Errorf("cell (%s,%s) count = %d, want %d", w.product, w.brand, cell.Count, w.count)
		}
		if cell.Graph == nil || cell.Graph.Paths() != w.count {
			t.Errorf("cell (%s,%s) graph missing or wrong path count", w.product, w.brand)
		}
	}

	// Iceberg: (shirt,*) holds one path and must not be materialized
	// (paper Definition 4.5's example).
	shirtSpec := core.CuboidSpec{Item: core.ItemLevel{3, 0}, PathLevel: 0}
	if _, ok := cube.Cell(shirtSpec, []hierarchy.NodeID{ex.Product.MustLookup("shirt"), hierarchy.Root}); ok {
		t.Errorf("(shirt,*) materialized despite iceberg δ=2")
	}
}

func TestFigure4ThroughCube(t *testing.T) {
	ex, cube := oracle.Table1(t, oracle.Cuts, core.Config{MinCount: 2})
	spec := core.CuboidSpec{Item: core.ItemLevel{2, 2}, PathLevel: 0}
	cell, ok := cube.Cell(spec, []hierarchy.NodeID{
		ex.Product.MustLookup("outerwear"), ex.Brand.MustLookup("nike"),
	})
	if !ok {
		t.Fatal("(outerwear,nike) missing")
	}
	g := cell.Graph
	loc := func(n string) hierarchy.NodeID { return ex.Location.MustLookup(n) }
	f := g.NodeAt([]hierarchy.NodeID{loc("f")})
	if f == nil || math.Abs(f.TransitionProb(int64(loc("t")))-1) > 1e-9 {
		t.Errorf("factory→truck probability wrong in (outerwear,nike) graph")
	}
	ft := g.NodeAt([]hierarchy.NodeID{loc("f"), loc("t")})
	if ft == nil || math.Abs(ft.TransitionProb(int64(loc("w")))-1.0/3) > 1e-9 {
		t.Errorf("truck→warehouse probability wrong in (outerwear,nike) graph")
	}
}

func TestApexCellAndPathLevels(t *testing.T) {
	ex, cube := oracle.Table1(t, oracle.Cuts, core.Config{MinCount: 2})
	for pl := 0; pl < 4; pl++ {
		spec := core.CuboidSpec{Item: core.ItemLevel{0, 0}, PathLevel: pl}
		cell, ok := cube.Cell(spec, []hierarchy.NodeID{hierarchy.Root, hierarchy.Root})
		if !ok {
			t.Fatalf("apex cell missing at path level %d", pl)
		}
		if cell.Count != 8 || cell.Graph.Paths() != 8 {
			t.Errorf("apex at level %d: count %d graph %d, want 8", pl, cell.Count, cell.Graph.Paths())
		}
	}
	// At the aggregated location cut, the apex graph must start with the
	// factory top-level concept.
	spec := core.CuboidSpec{Item: core.ItemLevel{0, 0}, PathLevel: 2}
	cell, _ := cube.Cell(spec, []hierarchy.NodeID{hierarchy.Root, hierarchy.Root})
	fa := ex.Location.MustLookup("factory")
	if cell.Graph.NodeAt([]hierarchy.NodeID{fa}) == nil {
		t.Errorf("aggregated apex graph lacks factory top-level node")
	}
}

func TestExceptionsMinedFromSegments(t *testing.T) {
	_, cube := oracle.Table1(t, oracle.Cuts, oracle.Mined(0))
	total := 0
	for _, cb := range cube.Cuboids {
		for _, cell := range cb.Cells {
			total += len(cell.Graph.Exceptions())
		}
	}
	if total == 0 {
		t.Fatalf("no exceptions mined across the cube")
	}
}

// TestRemineColdCellStartsOver: a cell with nothing cached cannot tell which
// of its exceptions still hold, so RemineCell re-mines it from scratch —
// mining its whole condition set — however few records it is told are new.
func TestRemineColdCellStartsOver(t *testing.T) {
	ex, cube := oracle.Table1(t, oracle.Cuts, oracle.Mined(0))
	spec := core.CuboidSpec{Item: core.ItemLevel{0, 0}, PathLevel: 0}
	apex := []hierarchy.NodeID{hierarchy.Root, hierarchy.Root}
	remined := func(clear bool, added func(*core.Cell) int) []string {
		fork := cube.Fork()
		fork.DropCondCache()
		cell := fork.OwnedCell(spec, apex)
		if clear {
			// A fold keeps the graph and drops its exceptions.
			g, err := flowgraph.Fold([]*flowgraph.Graph{cell.Graph})
			if err != nil {
				t.Fatal(err)
			}
			cell.Graph = g
		}
		if _, err := fork.RemineCell(spec, cell, ex.DB, added(cell)); err != nil {
			t.Fatal(err)
		}
		if _, warm := cell.CachedConds(); !warm {
			t.Fatal("a re-mined cell left its condition cache cold")
		}
		var out []string
		for _, x := range cell.Graph.Exceptions() {
			out = append(out, fmt.Sprint(x.Prefix, x.Condition, x.Support))
		}
		return out
	}
	want := remined(false, func(c *core.Cell) int { return int(c.Count) })
	got := remined(true, func(*core.Cell) int { return 1 })
	if len(want) == 0 {
		t.Fatal("the apex cell has no exception; the comparison is vacuous")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cold re-mine told one record is new found %d exceptions, from scratch %d, or they differ", len(got), len(want))
	}
}

func TestAnswerAncestorFallback(t *testing.T) {
	ex, cube := oracle.Table1(t, oracle.Cuts, core.Config{MinCount: 2})
	// (sandals, nike) holds one path: below the iceberg threshold, so the
	// query must roll up — to (shoes, nike) or beyond.
	spec := core.CuboidSpec{Item: core.ItemLevel{3, 2}, PathLevel: 0}
	values := []hierarchy.NodeID{ex.Product.MustLookup("sandals"), ex.Brand.MustLookup("nike")}
	a, err := cube.Answer(context.Background(), core.Query{Spec: spec, Values: values})
	if err != nil {
		t.Fatalf("fallback query failed entirely: %v", err)
	}
	ca := a.Cells[0]
	if ca.Exact {
		t.Errorf("query reported exact for a non-materialized cell")
	}
	if ca.Graph == nil || ca.Source == nil {
		t.Fatal("fallback returned nil graph or source")
	}
	if ca.Source.Count < 2 {
		t.Errorf("fallback source count = %d, want >= δ", ca.Source.Count)
	}

	// An exact hit reports exact=true.
	spec2 := core.CuboidSpec{Item: core.ItemLevel{2, 2}, PathLevel: 0}
	values2 := []hierarchy.NodeID{ex.Product.MustLookup("shoes"), ex.Brand.MustLookup("nike")}
	if a, err := cube.Answer(context.Background(), core.Query{Spec: spec2, Values: values2}); err != nil || !a.Cells[0].Exact {
		t.Errorf("exact query (shoes,nike) failed: err=%v answer=%+v", err, a)
	}
}

func TestRedundancyMarkAndCompress(t *testing.T) {
	// A dataset where every product behaves identically: all child cells
	// are redundant against their parents at any reasonable τ.
	cfg := datagen.Default()
	cfg.NumPaths = 500
	cfg.NumDims = 1
	cfg.DimFanouts = [3]int{2, 2, 2}
	cfg.NumSequences = 1 // one flow for everyone
	cfg.SeqLenMin, cfg.SeqLenMax = 3, 3
	cfg.DurationDomain = 1
	ds := datagen.MustGenerate(cfg)

	cube := oracle.Build(t, ds.DB, core.Config{
		MinSupport: 0.05,
		Plan:       ds.DefaultPlan(),
		Tau:        0.5,
	})
	redundant := 0
	withParents := 0
	for _, cb := range cube.Cuboids {
		nonStar := false
		for _, l := range cb.Spec.Item {
			if l > 0 {
				nonStar = true
			}
		}
		for _, cell := range cb.Cells {
			if nonStar {
				withParents++
				if cell.Redundant {
					redundant++
				}
			} else if cell.Redundant {
				t.Errorf("apex-level cell marked redundant; it has no parents")
			}
		}
	}
	if withParents == 0 {
		t.Fatal("no child cells materialized")
	}
	if redundant != withParents {
		t.Errorf("identical-behaviour dataset: %d/%d child cells redundant, want all", redundant, withParents)
	}

	removed := cube.Compress()
	if removed != redundant {
		t.Errorf("Compress removed %d cells, marked %d", removed, redundant)
	}
	// Queries still answer from the apex after compression.
	spec := core.CuboidSpec{Item: core.ItemLevel{1}, PathLevel: 0}
	someVal := ds.Schema.Dims[0].NodesAtLevel(1)[0]
	a, err := cube.Answer(context.Background(), core.Query{Spec: spec, Values: []hierarchy.NodeID{someVal}})
	if err != nil || a.Cells[0].Graph == nil {
		t.Fatalf("query after compression failed: %v", err)
	}
	if a.Cells[0].Exact {
		t.Errorf("query after compression reported exact for a compressed cell")
	}
}

func TestPartialMaterialization(t *testing.T) {
	ex, cube := oracle.Table1(t, oracle.Cuts, core.Config{MinCount: 2, Cuboids: []core.CuboidSpec{
		{Item: core.ItemLevel{2, 2}, PathLevel: 0},
		{Item: core.ItemLevel{0, 0}, PathLevel: 0},
	}})
	if len(cube.Cuboids) != 2 {
		t.Fatalf("materialized %d cuboids, want 2", len(cube.Cuboids))
	}
	if _, ok := cube.Cell(core.CuboidSpec{Item: core.ItemLevel{3, 2}, PathLevel: 0},
		[]hierarchy.NodeID{ex.Product.MustLookup("tennis"), ex.Brand.MustLookup("nike")}); ok {
		t.Errorf("unmaterialized cuboid answered a Cell lookup")
	}
}

func TestBuildValidatesSpecs(t *testing.T) {
	ex := paperex.New()
	bad := []core.Config{
		{MinCount: 2, Plan: oracle.Cuts(ex), Cuboids: []core.CuboidSpec{{Item: core.ItemLevel{1}, PathLevel: 0}}},
		{MinCount: 2, Plan: oracle.Cuts(ex), Cuboids: []core.CuboidSpec{{Item: core.ItemLevel{1, 1}, PathLevel: 9}}},
		{MinCount: 2, Plan: oracle.Cuts(ex), Cuboids: []core.CuboidSpec{{Item: core.ItemLevel{7, 1}, PathLevel: 0}}},
	}
	for i, cfg := range bad {
		if _, err := core.Build(ex.DB, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestSpecEnumeration(t *testing.T) {
	_, cube := oracle.Table1(t, oracle.Cuts, core.Config{MinCount: 2})
	// product levels {1,2,3} + '*', brand levels {1,2} + '*', 4 path
	// levels: 4 × 3 × 4 = 48 cuboids.
	if len(cube.Cuboids) != 48 {
		t.Errorf("enumerated %d cuboids, want 48", len(cube.Cuboids))
	}
}

// TestCondSetTellsWidePinsApart: a condition set matches pin-lists by
// depth, location and duration at full width, so on a hierarchy of 256 or
// more locations (or paths as deep) a pin is not mistaken for one whose
// location or depth differs by a multiple of 256.
func TestCondSetTellsWidePinsApart(t *testing.T) {
	pin := flowgraph.StagePin{Depth: 1, Location: 5, Duration: 3}
	set := core.NewCondSet([][]flowgraph.StagePin{{pin}})
	if !set.Has([]flowgraph.StagePin{pin}) {
		t.Fatal("the set does not hold its own condition")
	}
	for _, other := range []flowgraph.StagePin{
		{Depth: 1, Location: 261, Duration: 3},
		{Depth: 257, Location: 5, Duration: 3},
	} {
		if set.Has([]flowgraph.StagePin{other}) {
			t.Errorf("condition %+v matches %+v", other, pin)
		}
	}
	deep := core.NewCondSet([][]flowgraph.StagePin{{{Depth: 2, Location: 5, DurAny: true}}})
	if deep.Has([]flowgraph.StagePin{{Depth: 258, Location: 5, DurAny: true}}) {
		t.Error("a depth-258 pin matches a depth-2 one")
	}
}

func TestItemLevelDominates(t *testing.T) {
	cases := []struct {
		a, b core.ItemLevel
		want bool
	}{
		{core.ItemLevel{0, 0}, core.ItemLevel{3, 2}, true},
		{core.ItemLevel{1, 2}, core.ItemLevel{3, 2}, true},
		{core.ItemLevel{3, 2}, core.ItemLevel{1, 2}, false},
		{core.ItemLevel{1, 1}, core.ItemLevel{1, 1}, true},
	}
	for _, c := range cases {
		if got := c.a.Dominates(c.b); got != c.want {
			t.Errorf("%v dominates %v = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestParallelBuildMatchesSequential: a cube built with Workers > 1 is
// identical to the sequential build — same cells, counts, flowgraphs and
// exception sets.
func TestParallelBuildMatchesSequential(t *testing.T) {
	mk := func(workers int) *core.Cube {
		cfg := oracle.Mined(0)
		cfg.Workers = workers
		_, cube := oracle.Table1(t, oracle.Cuts, cfg)
		return cube
	}
	oracle.Same(t, "the build on 4 workers against the sequential one", mk(1), mk(4))
}

// TestRollUpMonotonicity: across every materialized cell, any materialized
// item-lattice parent holds at least as many paths — the anti-monotonicity
// the iceberg pruning rests on.
func TestRollUpMonotonicity(t *testing.T) {
	cfg := datagen.Default()
	cfg.NumPaths = 800
	cfg.NumDims = 2
	ds := datagen.MustGenerate(cfg)
	cube := oracle.Build(t, ds.DB, core.Config{MinSupport: 0.02, Plan: ds.DefaultPlan()})
	checked := 0
	for _, cb := range cube.Cuboids {
		for _, cell := range cb.Cells {
			for d, l := range cb.Spec.Item {
				if l == 0 {
					continue
				}
				// Parent: dimension d one materialized level up (or '*').
				pSpec := core.CuboidSpec{Item: append(core.ItemLevel(nil), cb.Spec.Item...), PathLevel: cb.Spec.PathLevel}
				pValues := append([]hierarchy.NodeID(nil), cell.Values...)
				if l == 1 {
					pSpec.Item[d] = 0
					pValues[d] = hierarchy.Root
				} else {
					pSpec.Item[d] = l - 1
					pValues[d] = ds.Schema.Dims[d].AncestorAt(cell.Values[d], l-1)
				}
				parent, ok := cube.Cell(pSpec, pValues)
				if !ok {
					t.Fatalf("parent of frequent cell missing: %v of %v", pValues, cell.Values)
				}
				if parent.Count < cell.Count {
					t.Fatalf("parent count %d < child count %d", parent.Count, cell.Count)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no parent/child pairs checked")
	}
}
