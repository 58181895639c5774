package flowcube_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"flowcube"

	"flowcube/internal/oracle"
)

// table1 rebuilds the paper's running example through the public API only.
func table1() (*flowcube.Hierarchy, *flowcube.Hierarchy, *flowcube.Hierarchy, *flowcube.DB) {
	product := flowcube.NewHierarchy("product")
	product.MustAddPath("clothing", "shoes", "tennis")
	product.MustAddPath("clothing", "shoes", "sandals")
	product.MustAddPath("clothing", "outerwear", "shirt")
	product.MustAddPath("clothing", "outerwear", "jacket")
	brand := flowcube.NewHierarchy("brand")
	brand.MustAddPath("sports", "nike")
	brand.MustAddPath("sports", "adidas")
	location := flowcube.NewHierarchy("location")
	location.MustAddPath("transportation", "d")
	location.MustAddPath("transportation", "t")
	location.MustAddPath("factory", "f")
	location.MustAddPath("store", "w")
	location.MustAddPath("store", "s")
	location.MustAddPath("store", "c")

	schema := flowcube.MustNewSchema(location, product, brand)
	db := flowcube.NewDB(schema)
	add := func(prod, br string, stages ...any) {
		rec := flowcube.Record{Dims: []flowcube.NodeID{
			product.MustLookup(prod), brand.MustLookup(br),
		}}
		for i := 0; i < len(stages); i += 2 {
			rec.Path = append(rec.Path, flowcube.Stage{
				Location: location.MustLookup(stages[i].(string)),
				Duration: int64(stages[i+1].(int)),
			})
		}
		db.MustAppend(rec)
	}
	add("tennis", "nike", "f", 10, "d", 2, "t", 1, "s", 5, "c", 0)
	add("tennis", "nike", "f", 5, "d", 2, "t", 1, "s", 10, "c", 0)
	add("sandals", "nike", "f", 10, "d", 1, "t", 2, "s", 5, "c", 0)
	add("shirt", "nike", "f", 10, "t", 1, "s", 5, "c", 0)
	add("jacket", "nike", "f", 10, "t", 2, "s", 5, "c", 1)
	add("jacket", "nike", "f", 10, "t", 1, "w", 5)
	add("tennis", "adidas", "f", 5, "d", 2, "t", 2, "s", 20)
	add("tennis", "adidas", "f", 5, "d", 2, "t", 3, "s", 10, "d", 5)
	return product, brand, location, db
}

func TestPublicAPIEndToEnd(t *testing.T) {
	product, brand, location, db := table1()
	leaf := flowcube.LevelCut(location, location.Depth())
	cube, err := flowcube.Build(db, flowcube.Config{
		MinCount: 2,
		Epsilon:  0.1,
		Plan: flowcube.Plan{PathLevels: []flowcube.PathLevel{
			{Cut: leaf, Time: flowcube.TimeBase},
			{Cut: leaf, Time: flowcube.TimeAny},
		}},
		MineExceptions: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := flowcube.CuboidSpec{Item: flowcube.ItemLevel{2, 2}, PathLevel: 0}
	cell, ok := cube.Cell(spec, []flowcube.NodeID{
		product.MustLookup("shoes"), brand.MustLookup("nike"),
	})
	if !ok || cell.Count != 3 {
		t.Fatalf("(shoes,nike) missing or wrong count")
	}
	_ = cell.Graph.String()

	a, err := cube.Answer(context.Background(), flowcube.Query{
		Spec:   flowcube.CuboidSpec{Item: flowcube.ItemLevel{3, 2}, PathLevel: 0},
		Values: []flowcube.NodeID{product.MustLookup("shirt"), brand.MustLookup("nike")}})
	if err != nil || a.Cells[0].Exact {
		t.Fatalf("roll-up inference failed: err=%v answer=%+v", err, a)
	}
	if a.Cells[0].Graph.Paths() < 2 {
		t.Errorf("inferred graph too small")
	}
}

func TestPublicSimilarityAndAggregate(t *testing.T) {
	_, _, location, db := table1()
	leaf := flowcube.LevelCut(location, location.Depth())
	level := flowcube.PathLevel{Cut: leaf, Time: flowcube.TimeBase}
	var paths []flowcube.Path
	for _, r := range db.Records {
		paths = append(paths, r.Path)
	}
	a := flowcube.BuildFlowgraph(location, level, paths)
	b := flowcube.BuildFlowgraph(location, level, paths[:4])
	if s := flowcube.Similarity(a, a); s != 1 {
		t.Errorf("self similarity = %g", s)
	}
	if d := flowcube.Divergence(a, a); d != 0 {
		t.Errorf("self divergence = %g", d)
	}
	if s := flowcube.Similarity(a, b); s <= 0 || s >= 1 {
		t.Errorf("cross similarity = %g", s)
	}

	up, err := flowcube.CutByNames(location, "transportation", "factory", "store")
	if err != nil {
		t.Fatal(err)
	}
	agg := flowcube.AggregatePath(db.Records[0].Path, flowcube.PathLevel{Cut: up, Time: flowcube.TimeBase})
	if len(agg) != 3 {
		t.Errorf("aggregated path has %d stages, want 3", len(agg))
	}
}

func TestPublicGenerate(t *testing.T) {
	cfg := flowcube.DefaultGenConfig()
	cfg.NumPaths = 100
	ds, err := flowcube.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ds.DB.Len() != 100 {
		t.Fatalf("generated %d paths", ds.DB.Len())
	}
	if _, err := flowcube.Build(ds.DB, flowcube.Config{
		MinSupport: 0.1,
		Plan:       ds.DefaultPlan(),
	}); err != nil {
		t.Fatal(err)
	}
}

// ExampleBuild demonstrates the minimal end-to-end flow on godoc.
func ExampleBuild() {
	product, brand, location, db := table1()
	leaf := flowcube.LevelCut(location, location.Depth())
	cube, err := flowcube.Build(db, flowcube.Config{
		MinCount: 2,
		Plan:     flowcube.Plan{PathLevels: []flowcube.PathLevel{{Cut: leaf, Time: flowcube.TimeBase}}},
	})
	if err != nil {
		panic(err)
	}
	spec := flowcube.CuboidSpec{Item: flowcube.ItemLevel{2, 2}, PathLevel: 0}
	cell, _ := cube.Cell(spec, []flowcube.NodeID{
		product.MustLookup("outerwear"), brand.MustLookup("nike"),
	})
	fmt.Printf("(outerwear, nike): %d paths\n", cell.Count)
	// Output: (outerwear, nike): 3 paths
}

func TestPublicContrast(t *testing.T) {
	_, _, location, db := table1()
	leaf := flowcube.LevelCut(location, location.Depth())
	level := flowcube.PathLevel{Cut: leaf, Time: flowcube.TimeBase}
	var a, b []flowcube.Path
	for i, r := range db.Records {
		if i%2 == 0 {
			a = append(a, r.Path)
		} else {
			b = append(b, r.Path)
		}
	}
	diffs := flowcube.Contrast(
		flowcube.BuildFlowgraph(location, level, a),
		flowcube.BuildFlowgraph(location, level, b), 5)
	if len(diffs) == 0 || len(diffs) > 5 {
		t.Fatalf("contrast returned %d diffs", len(diffs))
	}
}

func TestPublicCleanAndPlan(t *testing.T) {
	location := flowcube.NewHierarchy("location")
	location.MustAddPath("factory", "f")
	location.MustAddPath("store", "s")
	product := flowcube.GenerateHierarchy("product", 2, 2)
	schema := flowcube.MustNewSchema(location, product)

	leafProd := product.Leaves()[0]
	db, err := flowcube.Clean(schema, []flowcube.Reading{
		{EPC: "e1", Location: location.MustLookup("f"), Time: 0},
		{EPC: "e1", Location: location.MustLookup("f"), Time: 100},
		{EPC: "e1", Location: location.MustLookup("s"), Time: 200},
	}, map[string]flowcube.TaggedItem{
		"e1": {Dims: []flowcube.NodeID{leafProd}},
	}, flowcube.CleanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 1 || len(db.Records[0].Path) != 2 {
		t.Fatalf("clean produced %d records", db.Len())
	}

	specs, err := flowcube.PlanCuboids(flowcube.LayerPlan{
		Minimum:     flowcube.ItemLevel{1},
		Observation: flowcube.ItemLevel{2},
		PathLevels:  []int{0},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("planned %d cuboids, want 2", len(specs))
	}
}

func TestPublicSaveLoad(t *testing.T) {
	_, _, location, db := table1()
	leaf := flowcube.LevelCut(location, location.Depth())
	cube, err := flowcube.Build(db, flowcube.Config{
		MinCount: 2,
		Plan:     flowcube.Plan{PathLevels: []flowcube.PathLevel{{Cut: leaf, Time: flowcube.TimeBase}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := flowcube.LoadCube(bytes.NewReader(oracle.Save(t, cube)))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumCells() != cube.NumCells() {
		t.Fatalf("loaded %d cells, want %d", loaded.NumCells(), cube.NumCells())
	}
}
