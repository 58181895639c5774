package core_test

import (
	"context"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/hierarchy"
	"flowcube/internal/paperex"
)

func TestPlanCuboidsChain(t *testing.T) {
	lp := core.LayerPlan{
		Minimum:     core.ItemLevel{1, 1},
		Observation: core.ItemLevel{3, 2},
		PathLevels:  []int{0},
	}
	specs, err := core.PlanCuboids(lp, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Chain: (1,1) (2,1) (3,1) (3,2) — 4 item levels × 1 path level.
	if len(specs) != 4 {
		t.Fatalf("planned %d cuboids, want 4: %v", len(specs), specs)
	}
	want := map[string]bool{"1,1@0": true, "2,1@0": true, "3,1@0": true, "3,2@0": true}
	for _, s := range specs {
		if !want[s.Key()] {
			t.Errorf("unexpected cuboid %s", s.Key())
		}
	}
}

func TestPlanCuboidsDrillOrderAndExtra(t *testing.T) {
	lp := core.LayerPlan{
		Minimum:     core.ItemLevel{0, 0},
		Observation: core.ItemLevel{1, 1},
		DrillOrder:  []int{1, 0},
		PathLevels:  []int{0, 1},
		Extra:       []core.CuboidSpec{{Item: core.ItemLevel{1, 0}, PathLevel: 1}},
	}
	specs, err := core.PlanCuboids(lp, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Chain item levels: (0,0) (0,1) (1,1) × 2 path levels = 6, plus the
	// extra (1,0)@1 = 7 (no duplicates).
	if len(specs) != 7 {
		t.Fatalf("planned %d cuboids, want 7: %v", len(specs), specs)
	}
	keys := map[string]bool{}
	for _, s := range specs {
		if keys[s.Key()] {
			t.Errorf("duplicate cuboid %s", s.Key())
		}
		keys[s.Key()] = true
	}
	if !keys["0,1@0"] || keys["1,0@0"] {
		t.Errorf("drill order not respected: %v", specs)
	}
	if !keys["1,0@1"] {
		t.Errorf("extra cuboid missing")
	}
}

func TestPlanCuboidsValidation(t *testing.T) {
	bad := []core.LayerPlan{
		{Minimum: core.ItemLevel{1}, Observation: core.ItemLevel{1, 1}},                             // dim count
		{Minimum: core.ItemLevel{2, 2}, Observation: core.ItemLevel{1, 1}},                          // inverted layers
		{Minimum: core.ItemLevel{0, 0}, Observation: core.ItemLevel{1, 1}, DrillOrder: []int{0, 0}}, // bad permutation
		{Minimum: core.ItemLevel{0, 0}, Observation: core.ItemLevel{1, 1}, PathLevels: []int{9}},    // bad path level
	}
	for i, lp := range bad {
		if _, err := core.PlanCuboids(lp, 2); err == nil {
			t.Errorf("bad layer plan %d accepted", i)
		}
	}
}

func TestBuildWithLayeredPlan(t *testing.T) {
	ex := paperex.New()
	plan := examplePlan(ex)
	specs, err := core.PlanCuboids(core.LayerPlan{
		Minimum:     core.ItemLevel{1, 1},
		Observation: core.ItemLevel{2, 2},
		PathLevels:  []int{0},
	}, len(plan.PathLevels))
	if err != nil {
		t.Fatal(err)
	}
	cube, err := core.Build(ex.DB, core.Config{MinCount: 2, Plan: plan, Cuboids: specs})
	if err != nil {
		t.Fatal(err)
	}
	if len(cube.Cuboids) != len(specs) {
		t.Fatalf("materialized %d cuboids, want %d", len(cube.Cuboids), len(specs))
	}
	// The observation layer answers exactly.
	spec := core.CuboidSpec{Item: core.ItemLevel{2, 2}, PathLevel: 0}
	if _, ok := cube.Cell(spec, []hierarchy.NodeID{
		ex.Product.MustLookup("shoes"), ex.Brand.MustLookup("nike"),
	}); !ok {
		t.Errorf("observation layer cell missing")
	}
	// A level outside the plan falls back to a materialized ancestor.
	deep := core.CuboidSpec{Item: core.ItemLevel{3, 2}, PathLevel: 0}
	a, err := cube.Answer(context.Background(), core.Query{Spec: deep, Values: []hierarchy.NodeID{
		ex.Product.MustLookup("tennis"), ex.Brand.MustLookup("nike"),
	}})
	if err != nil || a.Cells[0].Exact {
		t.Fatalf("layered query failed: err=%v answer=%+v", err, a)
	}
	if a.Cells[0].Source.Count < 2 {
		t.Errorf("fallback source too small")
	}
}
