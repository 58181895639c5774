package core_test

import (
	"path/filepath"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/datagen"
	"flowcube/internal/oracle"
)

// TestBuildLeavesGraphsAtRest: in flowquery's -save configuration —
// exceptions, τ = 0.5, Workers 2, on the build workload's shape — Build
// leaves every cell's flowgraph at rest, and SaveFile and CuboidSummaries,
// which flowquery runs next, thaw none: a build holds no tree beyond the
// one each worker is building.
func TestBuildLeavesGraphsAtRest(t *testing.T) {
	gen := datagen.Default()
	gen.NumDims, gen.NumPaths = 3, 2000
	ds := datagen.MustGenerate(gen)
	cube := oracle.Build(t, ds.DB, core.Config{
		MinSupport:            0.01,
		Epsilon:               0.1,
		Tau:                   0.5,
		Plan:                  ds.DefaultPlan(),
		MineExceptions:        true,
		SingleStageExceptions: true,
		Workers:               2,
	})
	exceptions, redundant := 0, 0
	for _, cb := range cube.Cuboids {
		for _, cell := range cb.Cells {
			if cols := cell.Graph.Columns(); cols != nil {
				exceptions += len(cols.ExcNode)
			}
			if cell.Redundant {
				redundant++
			}
		}
	}
	if exceptions == 0 || redundant == 0 {
		t.Fatalf("the build mined %d exceptions and marked %d cells redundant; the test needs both", exceptions, redundant)
	}
	thawed := func(after string) {
		t.Helper()
		if n := cube.ThawedGraphs(); n > 0 {
			t.Fatalf("after %s, %d of %d graphs are not at rest", after, n, cube.NumCells())
		}
	}
	thawed("Build")
	if err := cube.SaveFile(filepath.Join(t.TempDir(), "cube.fcb")); err != nil {
		t.Fatal(err)
	}
	thawed("SaveFile")
	if len(cube.CuboidSummaries()) == 0 {
		t.Fatal("no cuboids")
	}
	thawed("CuboidSummaries")
}
