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
// mines exceptions and marks redundancy, and SaveFile and CuboidSummaries,
// which flowquery runs next, succeed on it. Every graph is its columns, so
// none can be left a tree.
func TestBuildLeavesGraphsAtRest(t *testing.T) {
	cube := buildRestShape(t)
	exceptions, redundant := 0, 0
	for _, cb := range cube.Cuboids {
		for _, cell := range cb.Cells {
			exceptions += len(cell.Graph.Columns().ExcNode)
			if cell.Redundant {
				redundant++
			}
		}
	}
	if exceptions == 0 || redundant == 0 {
		t.Fatalf("the build mined %d exceptions and marked %d cells redundant; the test needs both", exceptions, redundant)
	}
	if err := cube.SaveFile(filepath.Join(t.TempDir(), "cube.fcb")); err != nil {
		t.Fatal(err)
	}
	if len(cube.CuboidSummaries()) == 0 {
		t.Fatal("no cuboids")
	}
}

// TestLoadLeavesGraphsAtRest: a snapshot's cells decode to graphs on their
// checked columns — eagerly (Load) and one cell at a time (a lazy cube's
// LRU, which decodes every cell); TopExceptions ranks the exceptions thawed
// trees list as a stable sort of them would, and a loaded cube saves the
// bytes it was loaded from.
func TestLoadLeavesGraphsAtRest(t *testing.T) {
	want := oracle.Save(t, buildRestShape(t))
	path := oracle.File(t, want)
	cube := oracle.Open(t, path)
	if len(cube.CuboidSummaries()) == 0 {
		t.Fatal("no cuboids")
	}
	top := rankedStrings(cube.TopExceptions(0))
	if len(top) == 0 {
		t.Fatal("fixture exercises nothing: no exception ranked")
	}
	if err := cube.Validate(); err != nil {
		t.Fatal(err)
	}
	var thawed []core.RankedException
	for _, spec := range cube.MaterializedSpecs() {
		for _, cell := range cube.Cuboid(spec).SortedCells() {
			for _, x := range cell.Graph.Exceptions() {
				thawed = append(thawed, core.RankedException{Spec: spec, Values: cell.Values, Exception: x})
			}
		}
	}
	slices.SortStableFunc(thawed, func(a, b core.RankedException) int {
		return core.CompareExceptions(a.Exception, b.Exception)
	})
	if want := rankedStrings(thawed); !slices.Equal(top, want) {
		t.Fatalf("TopExceptions over resting graphs departs from a ranking of thawed trees:\n%v\nwant\n%v", top, want)
	}
	got := oracle.Save(t, cube)
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
			decoded++
		}
	}
	if err := lazy.LazyErr(); err != nil || decoded != cube.NumCells() {
		t.Fatalf("decoded %d of %d cells lazily (err %v)", decoded, cube.NumCells(), err)
	}
}

// TestAppendLeavesGraphsAtRest: after plain, exceptions-on and τ = 0.5
// appends, to built and to loaded cubes, a cell the batch did not land in
// shares its parent generation's graph, and one it did has a new graph; the
// cube validates, and the parent generation saves the bytes it saved before
// its fork was appended to.
func TestAppendLeavesGraphsAtRest(t *testing.T) {
	const base, batchLen, steps = 300, 6, 3
	ds := oracle.Dataset(7, base+batchLen*steps)
	for _, tc := range []struct {
		name string
		cfg  core.Config
	}{
		{"plain", core.Config{MinCount: 4}},
		{"exceptions", core.Config{MinCount: 4, Epsilon: 0.05, MineExceptions: true}},
		{"tau", core.Config{MinCount: 4, Tau: 0.5}},
	} {
		for _, loaded := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/loaded=%t", tc.name, loaded), func(t *testing.T) {
				cfg := tc.cfg
				cfg.Plan, cfg.Workers = ds.DefaultPlan(), 2
				db := oracle.Prefix(ds.DB, base)
				cube := oracle.Build(t, db, cfg)
				if loaded {
					cube = oracle.Reopen(t, cube, false)
					cube.Config.Workers = 2
				}
				for step := 0; step < steps; step++ {
					parent, before := cube, oracle.Save(t, cube)
					cube = parent.Fork()
					lo := base + step*batchLen
					if _, err := core.ApplyDelta(cube, db, ds.DB.Records[lo:lo+batchLen]); err != nil {
						t.Fatal(err)
					}
					if err := cube.Validate(); err != nil {
						t.Fatal(err)
					}
					shared, written := 0, 0
					for _, spec := range cube.MaterializedSpecs() {
						for _, cell := range cube.Cuboid(spec).SortedCells() {
							pc, ok := parent.Cell(spec, cell.Values)
							switch {
							case !ok || pc.Count != cell.Count:
								written++
								if ok && pc.Graph == cell.Graph {
									t.Fatalf("append %d: cell %v of %s took paths into its parent's graph", step, cell.Values, spec.Key())
								}
							case pc.Graph != cell.Graph:
								t.Fatalf("append %d: untouched cell %v of %s does not share its parent's graph", step, cell.Values, spec.Key())
							default:
								shared++
							}
						}
					}
					if shared == 0 || written == 0 {
						t.Fatalf("append %d shared %d graphs and wrote %d; the test needs both", step, shared, written)
					}
					if !bytes.Equal(oracle.Save(t, parent), before) {
						t.Fatalf("append %d changed what its parent generation saves", step)
					}
				}
			})
		}
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
