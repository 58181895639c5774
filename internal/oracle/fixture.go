package oracle

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/datagen"
	"flowcube/internal/flowgraph"
	"flowcube/internal/hierarchy"
	"flowcube/internal/paperex"
	"flowcube/internal/pathdb"
	"flowcube/internal/transact"
)

// Gen is the generated workload the contract tests share: two dimensions
// keep the item lattice compact, so a test explores many splits quickly,
// while the default 50 sequences over 20 leaf locations still produce
// multi-level flowgraphs, exceptions, and sub-δ combinations on both sides
// of the threshold.
func Gen(seed int64, paths int) datagen.Config {
	cfg := datagen.Default()
	cfg.Seed, cfg.NumPaths = seed, paths
	cfg.NumDims, cfg.DimFanouts = 2, [3]int{3, 3, 4}
	return cfg
}

// Dataset generates Gen(seed, paths).
func Dataset(seed int64, paths int) *datagen.Dataset {
	return datagen.MustGenerate(Gen(seed, paths))
}

// Small is the workload the command tests share: 300 paths over two
// dimensions, ten sequences of three or four stages, three durations.
func Small() *datagen.Dataset {
	cfg := datagen.Default()
	cfg.NumPaths, cfg.NumDims, cfg.NumSequences = 300, 2, 10
	cfg.SeqLenMin, cfg.SeqLenMax, cfg.DurationDomain = 3, 4, 3
	return datagen.MustGenerate(cfg)
}

// DatasetFile writes the dataset in the path database's text format to a
// fresh file under the test's temporary directory and returns its path.
func DatasetFile(t testing.TB, ds *datagen.Dataset) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ds.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return File(t, buf.Bytes())
}

// Records renders records in the path database's text format: the body of
// an append request.
func Records(t testing.TB, schema *pathdb.Schema, recs []pathdb.Record) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := (&pathdb.DB{Schema: schema, Records: recs}).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// Prefix returns a freshly allocated database over db's first n records:
// what a loader produces on every load, and what an append, which grows
// the database, and the serving store, which adopts it, need.
func Prefix(db *pathdb.DB, n int) *pathdb.DB {
	return &pathdb.DB{Schema: db.Schema, Records: append([]pathdb.Record(nil), db.Records[:n]...)}
}

// Build is core.Build that fails the test on an error.
func Build(t testing.TB, db *pathdb.DB, cfg core.Config) *core.Cube {
	t.Helper()
	cube, err := core.Build(db, cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return cube
}

// Base materializes Table 1's base view alone.
func Base(ex *paperex.Example) transact.Plan {
	return transact.Plan{PathLevels: []pathdb.PathLevel{ex.BasePathLevel()}}
}

// Views materializes Figure 5's base and transportation views of Table 1.
func Views(ex *paperex.Example) transact.Plan {
	return transact.Plan{PathLevels: []pathdb.PathLevel{ex.BasePathLevel(), ex.TransportPathLevel()}}
}

// Leaf materializes Table 1's leaf locations with their durations and
// without: the Table-3 encoding.
func Leaf(ex *paperex.Example) transact.Plan {
	leaf := hierarchy.LevelCut(ex.Location, ex.Location.Depth())
	return transact.Plan{PathLevels: []pathdb.PathLevel{{Cut: leaf, Time: pathdb.TimeBase}, {Cut: leaf, Time: pathdb.TimeAny}}}
}

// Cuts is Leaf followed by Table 1's top location level, with its durations
// and without: the four path levels the experiments use.
func Cuts(ex *paperex.Example) transact.Plan {
	up := hierarchy.LevelCut(ex.Location, 1)
	plan := Leaf(ex)
	plan.PathLevels = append(plan.PathLevels, pathdb.PathLevel{Cut: up, Time: pathdb.TimeBase}, pathdb.PathLevel{Cut: up, Time: pathdb.TimeAny})
	return plan
}

// Mined is the Table 1 configuration the fixtures share: δ = 2, exceptions
// mined at ε = 0.1, and redundancy marked at tau when it is positive.
func Mined(tau float64) core.Config {
	return core.Config{MinCount: 2, Epsilon: 0.1, Tau: tau, MineExceptions: true}
}

// Table1 builds the paper's running example under cfg, at the path levels
// plan picks.
func Table1(t testing.TB, plan func(*paperex.Example) transact.Plan, cfg core.Config) (*paperex.Example, *core.Cube) {
	t.Helper()
	ex := paperex.New()
	cfg.Plan = plan(ex)
	return ex, Build(t, ex.DB, cfg)
}

// File writes data to a fresh file under the test's temporary directory and
// returns its path.
func File(t testing.TB, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cube.fcb")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// Open loads the snapshot at path with core.Load.
func Open(t testing.TB, path string) *core.Cube {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return load(t, data)
}

func load(t testing.TB, snap []byte) *core.Cube {
	t.Helper()
	cube, err := core.Load(bytes.NewReader(snap))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return cube
}

// OpenLazy opens the snapshot at path lazily under opts and closes it when
// the test ends.
func OpenLazy(t testing.TB, path string, opts core.LazyOptions) *core.Cube {
	t.Helper()
	cube, err := core.LoadCubeLazy(path, opts)
	if err != nil {
		t.Fatalf("LoadCubeLazy: %v", err)
	}
	t.Cleanup(func() { _ = cube.Close() }) // a second Close is harmless
	return cube
}

// Twin saves the cube and opens the bytes both ways: with core.Load, and
// lazily under opts.
func Twin(t testing.TB, c *core.Cube, opts core.LazyOptions) (eager, lazy *core.Cube) {
	t.Helper()
	path := File(t, Save(t, c))
	return Open(t, path), OpenLazy(t, path, opts)
}

// Reopen saves the cube and opens the snapshot again: lazily when lazy is
// set, else with core.Load.
func Reopen(t testing.TB, c *core.Cube, lazy bool) *core.Cube {
	t.Helper()
	if lazy {
		return OpenLazy(t, File(t, Save(t, c)), core.LazyOptions{})
	}
	return load(t, Save(t, c))
}

// Drop picks, from a cube's materialized specs in ascending key order, the
// cuboids to drop.
type Drop func(specs []core.CuboidSpec) []core.CuboidSpec

// Random drops each cuboid with probability num/den, drawn in order from a
// generator seeded with seed.
func Random(seed int64, num, den int) Drop {
	return func(specs []core.CuboidSpec) (out []core.CuboidSpec) {
		rng := rand.New(rand.NewSource(seed))
		for _, s := range specs {
			if rng.Intn(den) < num {
				out = append(out, s)
			}
		}
		return out
	}
}

// Coarse drops every path-level-0 cuboid but the finest. Without exceptions
// and at MinCount 1, each dropped cell folds exactly from the finest
// cuboid, certified by the census of its path-level-1 twin.
func Coarse(specs []core.CuboidSpec) (out []core.CuboidSpec) {
	for _, s := range specs {
		finest := true
		for _, o := range specs {
			finest = finest && o.Item.Dominates(s.Item)
		}
		if s.PathLevel == 0 && !finest {
			out = append(out, s)
		}
	}
	return out
}

// Pruned returns a fork of c with the cuboids drop picks dropped, and the
// specs it dropped. A fixture that drops nothing fails the test.
func Pruned(t testing.TB, c *core.Cube, drop Drop) (*core.Cube, []core.CuboidSpec) {
	t.Helper()
	pruned := c.Fork()
	var dropped []core.CuboidSpec
	for _, s := range drop(c.MaterializedSpecs()) {
		if pruned.DropCuboid(s) != nil {
			dropped = append(dropped, s)
		}
	}
	if len(dropped) == 0 {
		t.Fatal("the pruned fixture dropped no cuboid")
	}
	return pruned, dropped
}

// CellKey is the key CellDigests files a cell under.
func CellKey(c *core.Cube, spec core.CuboidSpec, values []hierarchy.NodeID) string {
	return spec.Key() + "|" + core.FormatCell(c.Schema, values)
}

// CellDigests maps every materialized cell of c to the digest a
// reconstruction of it must reproduce: the cell's own, less its exceptions.
// They are holistic (Lemma 4.3): a fold cannot rebuild them, and a computed
// cell carries none.
func CellDigests(c *core.Cube) map[string][32]byte {
	out := map[string][32]byte{}
	for _, spec := range c.MaterializedSpecs() {
		for _, cell := range c.Cuboid(spec).SortedCells() {
			want := cell
			if len(cell.Graph.Columns().ExcNode) > 0 {
				g, _ := flowgraph.Fold([]*flowgraph.Graph{cell.Graph}) // one graph always folds
				want = &core.Cell{Values: cell.Values, Count: cell.Count, Graph: g,
					Redundant: cell.Redundant, Similarity: cell.Similarity}
			}
			out[CellKey(c, spec, cell.Values)] = core.CellDigest(want)
		}
	}
	return out
}
