package core_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"slices"
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
	cube := buildRestShape(t)
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
	requireAtRest(t, cube, "Build")
	if err := cube.SaveFile(filepath.Join(t.TempDir(), "cube.fcb")); err != nil {
		t.Fatal(err)
	}
	requireAtRest(t, cube, "SaveFile")
	if len(cube.CuboidSummaries()) == 0 {
		t.Fatal("no cuboids")
	}
	requireAtRest(t, cube, "CuboidSummaries")
}

// TestLoadLeavesGraphsAtRest: a snapshot's cells decode to graphs at rest
// on their checked columns — eagerly (Load) and one cell at a time (a lazy
// cube's LRU) — and CuboidSummaries, TopExceptions, Validate and Save thaw
// none; TopExceptions ranks what it ranks over thawed graphs, and a loaded
// cube saves the bytes it was loaded from.
func TestLoadLeavesGraphsAtRest(t *testing.T) {
	want := oracle.Save(t, buildRestShape(t))
	path := oracle.File(t, want)
	cube := oracle.Open(t, path)
	requireAtRest(t, cube, "Load")
	if len(cube.CuboidSummaries()) == 0 {
		t.Fatal("no cuboids")
	}
	requireAtRest(t, cube, "CuboidSummaries")
	top := rankedStrings(cube.TopExceptions(0))
	requireAtRest(t, cube, "TopExceptions")
	if len(top) == 0 {
		t.Fatal("fixture exercises nothing: no exception ranked")
	}
	if err := cube.Validate(); err != nil {
		t.Fatal(err)
	}
	requireAtRest(t, cube, "Validate")
	thawed := oracle.Open(t, path)
	for _, cb := range thawed.Cuboids {
		for _, cell := range cb.Cells {
			cell.Graph.Root()
		}
	}
	if thawed.ThawedGraphs() != thawed.NumCells() {
		t.Fatal("the twin did not thaw")
	}
	if got := rankedStrings(thawed.TopExceptions(0)); !slices.Equal(got, top) {
		t.Fatalf("TopExceptions over resting graphs departs from the thawed twin's:\n%v\nwant\n%v", top, got)
	}
	got := oracle.Save(t, cube)
	requireAtRest(t, cube, "Save")
	if !bytes.Equal(got, want) {
		t.Fatal("a loaded cube saves other bytes than it was loaded from")
	}

	lazy := oracle.OpenLazy(t, path, core.LazyOptions{CacheBytes: -1})
	decoded := 0
	for _, cb := range lazy.Cuboids {
		for _, cell := range cb.SortedCells() {
			if cell.Graph == nil {
				continue
			}
			if decoded++; cell.Graph.Columns() == nil {
				t.Fatalf("lazy cell %v of cuboid %s decoded to a tree", cell.Values, cb.Spec.Key())
			}
		}
	}
	if err := lazy.LazyErr(); err != nil || decoded != cube.NumCells() {
		t.Fatalf("decoded %d of %d cells lazily (err %v)", decoded, cube.NumCells(), err)
	}
}

// buildRestShape builds the build workload's shape in flowquery's -save
// configuration: exceptions, τ = 0.5, Workers 2.
func buildRestShape(t *testing.T) *core.Cube {
	t.Helper()
	gen := datagen.Default()
	gen.NumDims, gen.NumPaths = 3, 2000
	ds := datagen.MustGenerate(gen)
	return oracle.Build(t, ds.DB, core.Config{
		MinSupport:     0.01,
		Epsilon:        0.1,
		Tau:            0.5,
		Plan:           ds.DefaultPlan(),
		MineExceptions: true,
		Workers:        2,
	})
}

// rankedStrings renders what a ranked exception reports, in rank order.
func rankedStrings(xs []core.RankedException) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%s %v at %v (node %d, depth %d, count %d, durations %v) if %v: support %d, deviations %v/%v, durations %v, transitions %v, delay %v",
			x.Spec.Key(), x.Values, x.Prefix, x.Node.Location, x.Node.Depth, x.Node.Count, &x.Node.Durations, x.Condition,
			x.Support, x.DurationDeviation, x.TransitionDeviation, x.Durations, x.Transitions, x.Delay())
	}
	return out
}

// requireAtRest fails unless every materialized cell's graph rests.
func requireAtRest(t *testing.T, cube *core.Cube, after string) {
	t.Helper()
	if n := cube.ThawedGraphs(); n > 0 {
		t.Fatalf("after %s, %d of %d graphs are not at rest", after, n, cube.NumCells())
	}
}
