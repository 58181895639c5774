package olap

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/datagen"
	"flowcube/internal/paperex"
	"flowcube/internal/pathdb"
	"flowcube/internal/transact"
)

// testDataset is a small synthetic database: 2 dimensions with shallow
// fanouts so the full lattice (16 item levels × 2 path levels) builds in
// well under a second.
func testDataset(t testing.TB) *datagen.Dataset {
	t.Helper()
	cfg := datagen.Default()
	cfg.NumPaths = 1500
	cfg.NumDims = 2
	cfg.DimFanouts = [3]int{2, 2, 3}
	cfg.NumSequences = 8
	cfg.SeqLenMin, cfg.SeqLenMax = 3, 5
	return datagen.MustGenerate(cfg)
}

func buildEager(t testing.TB, ds *datagen.Dataset, minCount int64, tau float64) *core.Cube {
	t.Helper()
	plan := ds.DefaultPlan()
	plan.PathLevels = plan.PathLevels[:2]
	cube, err := core.Build(ds.DB, core.Config{
		MinCount: minCount,
		Tau:      tau,
		Plan:     plan,
		Workers:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cube
}

// digestAll records the eager digest of every materialized cell.
func digestAll(cube *core.Cube) map[string][32]byte {
	out := map[string][32]byte{}
	for _, spec := range cube.MaterializedSpecs() {
		cb := cube.Cuboid(spec)
		for _, cell := range cb.SortedCells() {
			out[spec.Key()+"|"+core.FormatCell(cube.Schema, cell.Values)] = core.CellDigest(cell)
		}
	}
	return out
}

// checkComputedCells answers every cell of every dropped cuboid on the
// pruned cube across workers goroutines (the -race exactness proof) and
// requires each answer to be computed, exact, and digest-identical to the
// eager build. It returns how many computed answers were verified.
func checkComputedCells(t *testing.T, eager, pruned *core.Cube, dropped []core.CuboidSpec, digests map[string][32]byte, requireComputed bool) int64 {
	t.Helper()
	type job struct {
		spec core.CuboidSpec
		cell *core.Cell
	}
	var jobs []job
	for _, spec := range dropped {
		cb := eager.Cuboid(spec)
		if cb == nil {
			t.Fatalf("dropped cuboid %s not in eager cube", spec.Key())
		}
		for _, cell := range cb.SortedCells() {
			jobs = append(jobs, job{spec, cell})
		}
	}
	var computed atomic.Int64
	var wg sync.WaitGroup
	const workers = 4
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(jobs); i += workers {
				j := jobs[i]
				name := j.spec.Key() + "|" + core.FormatCell(eager.Schema, j.cell.Values)
				a, err := pruned.Answer(context.Background(), core.Query{
					Op: core.OpCell, Spec: j.spec, Values: j.cell.Values,
				})
				if err != nil {
					if errors.Is(err, core.ErrCellNotFound) {
						continue
					}
					t.Errorf("%s: %v", name, err)
					continue
				}
				ca := a.Cells[0]
				if ca.Provenance != core.ComputedFromDescendants {
					// A redundant cell answers via its parent whether it is
					// materialized or reconstructed — same inference rule —
					// so only non-redundant cells must come back computed.
					if requireComputed && !j.cell.Redundant {
						t.Errorf("%s: provenance %s, want computed", name, ca.Provenance)
					}
					continue
				}
				if !ca.Exact {
					t.Errorf("%s: computed answer not marked exact", name)
				}
				if len(ca.Folded) == 0 {
					t.Errorf("%s: computed answer lists no folded cells", name)
				}
				if got, want := core.CellDigest(ca.Source), digests[name]; got != want {
					t.Errorf("%s: computed cell digest diverges from eager build", name)
				}
				computed.Add(1)
			}
		}(w)
	}
	wg.Wait()
	return computed.Load()
}

func droppedSpecs(t *testing.T, res *PlanResult) []core.CuboidSpec {
	t.Helper()
	out := make([]core.CuboidSpec, len(res.Dropped))
	for i, d := range res.Dropped {
		spec, err := core.ParseCuboidKey(d.Cuboid)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = spec
	}
	return out
}

// TestPruneDropsAndStaysExact: with MinCount 1 nothing is iceberg-pruned,
// so every coarse cuboid partitions exactly and the planner must find
// drops; every dropped cell must then answer computed-exact with the eager
// digest. This is the acceptance proof for the planner-droppable set.
func TestPruneDropsAndStaysExact(t *testing.T) {
	ds := testDataset(t)
	eager := buildEager(t, ds, 1, 0)
	digests := digestAll(eager)

	pruned := eager.Fork()
	res, err := Prune(context.Background(), pruned, PlannerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dropped) == 0 {
		t.Fatal("planner dropped nothing on a MinCount-1 full lattice")
	}
	if res.BytesAfter >= res.BytesBefore {
		t.Fatalf("bytes did not shrink: %d -> %d", res.BytesBefore, res.BytesAfter)
	}
	if res.CuboidsAfter != res.CuboidsBefore-len(res.Dropped) {
		t.Fatalf("cuboid census: before %d, after %d, dropped %d", res.CuboidsBefore, res.CuboidsAfter, len(res.Dropped))
	}
	n := checkComputedCells(t, eager, pruned, droppedSpecs(t, res), digests, true)
	if n == 0 {
		t.Fatal("no computed cells verified")
	}
	t.Logf("dropped %d/%d cuboids, %d -> %d bytes, %d computed cells verified",
		len(res.Dropped), res.CuboidsBefore, res.BytesBefore, res.BytesAfter, n)
}

// TestPruneRedundancyMarking repeats the exactness proof on a cube with
// redundancy marking enabled: reconstructed cells must reproduce the eager
// Similarity/Redundant bits (digest-covered), including against parents
// whose own cuboids were pruned.
func TestPruneRedundancyMarking(t *testing.T) {
	ds := testDataset(t)
	eager := buildEager(t, ds, 1, 0.5)
	digests := digestAll(eager)

	pruned := eager.Fork()
	res, err := Prune(context.Background(), pruned, PlannerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dropped) == 0 {
		t.Skip("planner found nothing droppable under redundancy marking")
	}
	checkComputedCells(t, eager, pruned, droppedSpecs(t, res), digests, true)

	// The planner-level proof for every cell, redundant ones included:
	// ReconstructCell (no redundant-cell serving preference) must reproduce
	// the eager bytes, similarity and redundancy marking included.
	for _, spec := range droppedSpecs(t, res) {
		for _, cell := range eager.Cuboid(spec).SortedCells() {
			rec, _, err := pruned.ReconstructCell(context.Background(), spec, cell.Values)
			if err != nil {
				t.Fatalf("%s cell %s: %v", spec.Key(), core.FormatCell(eager.Schema, cell.Values), err)
			}
			if core.CellDigest(rec) != core.CellDigest(cell) {
				t.Errorf("%s cell %s: reconstructed digest diverges from eager build",
					spec.Key(), core.FormatCell(eager.Schema, cell.Values))
			}
		}
	}
}

// TestPruneBudget: a tight cost budget must bound every drop's fold width
// and can only keep the snapshot larger than the unlimited plan.
func TestPruneBudget(t *testing.T) {
	ds := testDataset(t)
	eager := buildEager(t, ds, 1, 0)

	unlimited, err := Prune(context.Background(), eager.Fork(), PlannerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	budget := 2
	tight, err := Prune(context.Background(), eager.Fork(), PlannerConfig{CostBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range tight.Dropped {
		if d.MaxFold > budget {
			t.Errorf("cuboid %s dropped with max fold %d over budget %d", d.Cuboid, d.MaxFold, budget)
		}
	}
	if tight.BytesAfter < unlimited.BytesAfter {
		t.Errorf("tight budget snapshot (%d bytes) smaller than unlimited (%d bytes)",
			tight.BytesAfter, unlimited.BytesAfter)
	}
}

// TestPruneKeepsExceptionCuboids: exception-bearing cells cannot be
// refolded (holistic measure), so the planner must keep their cuboids.
func TestPruneKeepsExceptionCuboids(t *testing.T) {
	ex := paperex.New()
	plan := transact.Plan{PathLevels: []pathdb.PathLevel{ex.BasePathLevel(), ex.TransportPathLevel()}}
	cube, err := core.Build(ex.DB, core.Config{
		MinCount:              2,
		Epsilon:               0.1,
		Plan:                  plan,
		MineExceptions:        true,
		SingleStageExceptions: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	eager := cube.Fork()
	res, err := Prune(context.Background(), cube, PlannerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range droppedSpecs(t, res) {
		for _, cell := range eager.Cuboid(spec).SortedCells() {
			if cell.Graph != nil && len(cell.Graph.Exceptions()) > 0 {
				t.Errorf("cuboid %s dropped although cell %s carries exceptions",
					spec.Key(), core.FormatCell(eager.Schema, cell.Values))
			}
		}
	}
}

// TestAnswerMatchesEagerRandomSplits is the K-split-point property test:
// drop a random subset of cuboids, then every cell the engine answers as
// computed must digest-identical to the eager build. Splits run in
// parallel, and each split fans its cells over goroutines, so `go test
// -race` checks Answer's concurrent-reader contract at the same time.
func TestAnswerMatchesEagerRandomSplits(t *testing.T) {
	ds := testDataset(t)
	eager := buildEager(t, ds, 2, 0)
	digests := digestAll(eager)
	specs := eager.MaterializedSpecs()

	var computed atomic.Int64
	const splits = 6
	t.Run("splits", func(t *testing.T) {
		for k := 0; k < splits; k++ {
			k := k
			t.Run(fmt.Sprintf("seed%d", k), func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(int64(k)))
				pruned := eager.Fork()
				var dropped []core.CuboidSpec
				for _, s := range specs {
					if rng.Intn(2) == 0 {
						if cb := pruned.DropCuboid(s); cb != nil {
							dropped = append(dropped, s)
						}
					}
				}
				computed.Add(checkComputedCells(t, eager, pruned, dropped, digests, false))
			})
		}
	})
	if computed.Load() == 0 {
		t.Fatal("no split produced a single computed cell; the property test proved nothing")
	}
	t.Logf("%d computed cells verified across %d random splits", computed.Load(), splits)
}

// buildPaperCube is the Figure-5 running example without exceptions, the
// fixture for operation-semantics tests.
func buildPaperCube(t testing.TB) (*paperex.Example, *core.Cube) {
	t.Helper()
	ex := paperex.New()
	plan := transact.Plan{PathLevels: []pathdb.PathLevel{ex.BasePathLevel(), ex.TransportPathLevel()}}
	cube, err := core.Build(ex.DB, core.Config{MinCount: 2, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	return ex, cube
}

func parseCell(t testing.TB, cube *core.Cube, cell string, pathLevel int) core.Query {
	t.Helper()
	q, err := ParseQuery(cube, url.Values{"cell": {cell}, "pathlevel": {fmt.Sprint(pathLevel)}})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestAnswerOps(t *testing.T) {
	_, cube := buildPaperCube(t)
	ctx := context.Background()
	product := cube.Schema.DimIndex("product")
	brand := cube.Schema.DimIndex("brand")

	t.Run("rollup", func(t *testing.T) {
		q := parseCell(t, cube, "product=shoes,brand=nike", 0)
		q.Op = core.OpRollUp
		q.Dim = product
		a, err := cube.Answer(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		ca := a.Cells[0]
		if got := core.FormatCell(cube.Schema, ca.Values); got != "product=clothing,brand=nike" {
			t.Errorf("rollup answered %s", got)
		}
		if ca.Spec.Item[product] != 1 {
			t.Errorf("rollup item level %v", ca.Spec.Item)
		}
	})

	t.Run("rollup-at-apex-errors", func(t *testing.T) {
		q := parseCell(t, cube, "", 0)
		q.Op = core.OpRollUp
		q.Dim = product
		if _, err := cube.Answer(ctx, q); err == nil {
			t.Fatal("rolling up an aggregated dimension did not error")
		}
	})

	t.Run("drilldown", func(t *testing.T) {
		q := parseCell(t, cube, "product=shoes,brand=nike", 0)
		q.Op = core.OpDrillDown
		q.Dim = product
		a, err := cube.Answer(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, ca := range a.Cells {
			if ca.Spec.Item[product] != 3 {
				t.Errorf("drilldown cell %s at item level %v", core.FormatCell(cube.Schema, ca.Values), ca.Spec.Item)
			}
		}
		if len(a.Cells) == 0 && a.Skipped == 0 {
			t.Error("drilldown found no child cells at all")
		}
	})

	t.Run("slice", func(t *testing.T) {
		q, err := ParseQuery(cube, url.Values{"op": {"slice"}, "cell": {"product=shoes"}, "select": {"brand=nike"}})
		if err != nil {
			t.Fatal(err)
		}
		a, err := cube.Answer(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Cells) == 0 {
			t.Fatal("slice returned no cells")
		}
		for _, ca := range a.Cells {
			if got := cube.Schema.Dims[brand].Name(ca.Values[brand]); got != "nike" {
				t.Errorf("slice leaked cell with brand=%s", got)
			}
		}
	})

	t.Run("dice-max", func(t *testing.T) {
		q, err := ParseQuery(cube, url.Values{"op": {"dice"}, "select": {"brand=nike"}, "max": {"1"}})
		if err != nil {
			t.Fatal(err)
		}
		a, err := cube.Answer(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Cells) > 1 {
			t.Errorf("max=1 returned %d cells", len(a.Cells))
		}
	})

	t.Run("nocompute", func(t *testing.T) {
		pruned := cube.Fork()
		res, err := Prune(ctx, pruned, PlannerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range droppedSpecs(t, res) {
			for _, cell := range cube.Cuboid(spec).SortedCells() {
				a, err := pruned.Answer(ctx, core.Query{Spec: spec, Values: cell.Values, NoCompute: true})
				if err != nil {
					continue
				}
				if a.Cells[0].Provenance == core.ComputedFromDescendants {
					t.Fatalf("NoCompute still computed %s", core.FormatCell(cube.Schema, cell.Values))
				}
			}
		}
	})
}

func TestParseQueryErrors(t *testing.T) {
	_, cube := buildPaperCube(t)
	bad := []url.Values{
		{"op": {"pivot"}},
		{"cell": {"bogus"}},
		{"cell": {"product=bogus"}},
		{"pathlevel": {"x"}},
		{"op": {"rollup"}},
		{"op": {"rollup"}, "dim": {"nosuch"}},
		{"op": {"slice"}, "select": {"brand"}},
		{"op": {"slice"}, "select": {"brand=bogus"}},
		{"op": {"slice"}, "cell": {"brand=sports"}, "select": {"brand=nike"}},
		{"max": {"0"}},
		{"nocompute": {"maybe"}},
	}
	for _, params := range bad {
		if _, err := ParseQuery(cube, params); err == nil {
			t.Errorf("ParseQuery(%v) did not error", params)
		}
	}

	q, err := ParseQuery(cube, url.Values{"op": {"slice"}, "select": {"brand=nike"}})
	if err != nil {
		t.Fatal(err)
	}
	brand := cube.Schema.DimIndex("brand")
	if q.Spec.Item[brand] != 2 {
		t.Errorf("selector did not imply brand level: %v", q.Spec.Item)
	}
}
