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

// digestAll records, for every materialized cell, the digest a
// reconstruction of it must reproduce: the eager cell's, less its
// exceptions — they are holistic (Lemma 4.3), a fold cannot rebuild them,
// and a computed cell carries none.
func digestAll(cube *core.Cube) map[string][32]byte {
	out := map[string][32]byte{}
	for _, spec := range cube.MaterializedSpecs() {
		cb := cube.Cuboid(spec)
		for _, cell := range cb.SortedCells() {
			want := cell
			if len(cell.Graph.Exceptions()) > 0 {
				g := cell.Graph.Clone()
				g.ClearExceptions()
				want = &core.Cell{Values: cell.Values, Count: cell.Count, Graph: g,
					Redundant: cell.Redundant, Similarity: cell.Similarity}
			}
			out[spec.Key()+"|"+core.FormatCell(cube.Schema, cell.Values)] = core.CellDigest(want)
		}
	}
	return out
}

// checkComputedCells reconstructs and answers every cell of every dropped
// cuboid on the pruned cube across workers goroutines (the -race exactness
// proof) and requires each reconstruction, and each answer that comes back
// computed, to be exact and digest-identical to the eager build. It returns
// how many computed answers were verified.
func checkComputedCells(t *testing.T, input string, eager, pruned *core.Cube, dropped []core.CuboidSpec, digests map[string][32]byte) int64 {
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
				key := j.spec.Key() + "|" + core.FormatCell(eager.Schema, j.cell.Values)
				name := input + " " + key
				// Redundant cells answer through a parent, so Answer alone
				// would leave their recomputed marking unchecked.
				rec, _, err := pruned.ReconstructCell(context.Background(), j.spec, j.cell.Values)
				if err == nil && core.CellDigest(rec) != digests[key] {
					t.Errorf("%s: reconstructed cell digest diverges from eager build", name)
				} else if err != nil && !errors.Is(err, core.ErrNotComputable) {
					t.Errorf("%s: %v", name, err)
				}
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
					continue
				}
				if !ca.Exact {
					t.Errorf("%s: computed answer not marked exact", name)
				}
				if len(ca.Folded) == 0 {
					t.Errorf("%s: computed answer lists no folded cells", name)
				}
				if got, want := core.CellDigest(ca.Source), digests[key]; got != want {
					t.Errorf("%s: computed cell digest diverges from eager build", name)
				}
				computed.Add(1)
			}
		}(w)
	}
	wg.Wait()
	return computed.Load()
}

// dropRandom drops each materialized cuboid of cube with probability 1/2
// and returns the dropped specs.
func dropRandom(cube *core.Cube, seed int64) []core.CuboidSpec {
	rng := rand.New(rand.NewSource(seed))
	var dropped []core.CuboidSpec
	for _, s := range cube.MaterializedSpecs() {
		if rng.Intn(2) == 0 && cube.DropCuboid(s) != nil {
			dropped = append(dropped, s)
		}
	}
	return dropped
}

// TestAnswerMatchesEagerRandomSplits is the K-split-point property test:
// drop a random subset of cuboids, then every cell the engine answers as
// computed must digest-identical to the eager build. Splits run in
// parallel, and each split fans its cells over goroutines, so `go test
// -race` checks Answer's concurrent-reader contract at the same time.
func TestAnswerMatchesEagerRandomSplits(t *testing.T) {
	ds := testDataset(t)
	ex := paperex.New()
	withExceptions, err := core.Build(ex.DB, core.Config{
		MinCount:              2,
		Epsilon:               0.1,
		Plan:                  transact.Plan{PathLevels: []pathdb.PathLevel{ex.BasePathLevel(), ex.TransportPathLevel()}},
		MineExceptions:        true,
		SingleStageExceptions: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	type input struct {
		name     string
		eager    *core.Cube
		digests  map[string][32]byte
		computed atomic.Int64
	}
	inputs := []*input{
		{name: "iceberg", eager: buildEager(t, ds, 2, 0)},
		// Redundancy marking on: a reconstructed cell's Similarity and
		// Redundant bits are digest-covered, also against parents whose own
		// cuboids were dropped.
		{name: "tau", eager: buildEager(t, ds, 1, 0.5)},
		// Exceptions on: a computed cell is the eager cell less its
		// exceptions (digestAll), never a different flowgraph.
		{name: "exceptions", eager: withExceptions},
	}
	for _, in := range inputs {
		in.digests = digestAll(in.eager)
	}

	const splits = 6
	t.Run("splits", func(t *testing.T) {
		for k := 0; k < splits; k++ {
			k := k
			t.Run(fmt.Sprintf("seed%d", k), func(t *testing.T) {
				t.Parallel()
				for _, in := range inputs {
					pruned := in.eager.Fork()
					dropped := dropRandom(pruned, int64(k))
					in.computed.Add(checkComputedCells(t, in.name, in.eager, pruned, dropped, in.digests))
				}
			})
		}
	})
	for _, in := range inputs {
		if in.computed.Load() == 0 {
			t.Fatalf("%s: no split produced a single computed cell; the property test proved nothing", in.name)
		}
		t.Logf("%s: %d computed cells verified across %d random splits", in.name, in.computed.Load(), splits)
	}
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
		for _, spec := range dropRandom(pruned, 1) {
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
