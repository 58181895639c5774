package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/datagen"
	"flowcube/internal/flowgraph"
	"flowcube/internal/hierarchy"
	"flowcube/internal/pathdb"
)

// genConfig is a small but non-trivial workload: 2 dimensions keeps the
// item lattice compact so the test explores splits quickly, while the
// default 50 sequences over 20 leaf locations still produce multi-level
// flowgraphs, exceptions, and sub-δ combinations on both sides of the
// threshold.
func genConfig(seed int64, paths int) datagen.Config {
	cfg := datagen.Default()
	cfg.Seed = seed
	cfg.NumPaths = paths
	cfg.NumDims = 2
	cfg.DimFanouts = [3]int{3, 3, 4}
	return cfg
}

func hexDigest(t testing.TB, cube *core.Cube) string {
	t.Helper()
	var buf bytes.Buffer
	if err := cube.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

func dbWith(ds *datagen.Dataset, n int) *pathdb.DB {
	return &pathdb.DB{Schema: ds.DB.Schema, Records: append([]pathdb.Record(nil), ds.DB.Records[:n]...)}
}

// TestApplyDeltaMatchesFullBuild is the exactness property test: for K
// random split points of a generated dataset, building over the prefix and
// delta-applying the suffix yields the same Save bytes as one full build
// over the whole database. Run under -race via scripts/check.sh.
func TestApplyDeltaMatchesFullBuild(t *testing.T) {
	// 336 locations: condition pins whose locations differ by 256 must stay
	// apart in the condition cache, or an append skips a newly frequent one.
	wide := genConfig(1, 260)
	wide.LocFanouts, wide.NumSequences = [2]int{16, 20}, 12
	variants := []struct {
		name string
		gen  datagen.Config
		cfg  core.Config
	}{
		{"exceptions+ledger+tau", genConfig(7, 260), core.Config{
			MinCount: 4, Epsilon: 0.05, Tau: 0.6,
			MineExceptions: true, DeltaLedger: true, Workers: 2,
		}},
		{"singlestage+ledger", genConfig(7, 260), core.Config{
			MinCount: 4, Epsilon: 0.1,
			MineExceptions: true, SingleStageExceptions: true, DeltaLedger: true, Workers: 2,
		}},
		{"plain-noledger", genConfig(7, 260), core.Config{
			MinCount: 5, Tau: 0.5, Workers: 2,
		}},
		{"wide-locations", wide, core.Config{
			MinCount: 4, Epsilon: 0.05, Tau: 0.6,
			MineExceptions: true, DeltaLedger: true, Workers: 2,
		}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			ds := datagen.MustGenerate(v.gen)
			cfg := v.cfg
			cfg.Plan = ds.DefaultPlan()

			full, err := core.Build(ds.DB, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := hexDigest(t, full)

			rng := rand.New(rand.NewSource(11))
			const K = 3
			for k := 0; k < K; k++ {
				split := 1 + rng.Intn(len(ds.DB.Records)-1)
				db := dbWith(ds, split)
				cube, err := core.Build(db, cfg)
				if err != nil {
					t.Fatal(err)
				}
				stats, err := core.ApplyDelta(cube, db, ds.DB.Records[split:])
				if err != nil {
					t.Fatalf("split %d: ApplyDelta: %v", split, err)
				}
				if db.Len() != ds.DB.Len() {
					t.Fatalf("split %d: union db has %d records, want %d", split, db.Len(), ds.DB.Len())
				}
				if got := hexDigest(t, cube); got != want {
					t.Errorf("split %d: delta digest %s != full digest %s (stats %+v)", split, got, want, stats)
				}
				if err := cube.Validate(); err != nil {
					t.Errorf("split %d: delta cube invalid: %v", split, err)
				}
			}
		})
	}
}

// TestApplyDeltaMultipleBatches chains several deltas: base + batch1 +
// batch2 + batch3 must still match one full build.
func TestApplyDeltaMultipleBatches(t *testing.T) {
	t.Parallel()
	ds := datagen.MustGenerate(genConfig(13, 240))
	cfg := core.Config{
		MinCount: 4, Epsilon: 0.05, Tau: 0.6, Plan: ds.DefaultPlan(),
		MineExceptions: true, DeltaLedger: true, Workers: 2,
	}
	full, err := core.Build(ds.DB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := hexDigest(t, full)

	splits := []int{140, 175, 210, 240}
	db := dbWith(ds, splits[0])
	cube, err := core.Build(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(splits); i++ {
		batch := ds.DB.Records[splits[i-1]:splits[i]]
		if _, err := core.ApplyDelta(cube, db, batch); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if got := hexDigest(t, cube); got != want {
		t.Errorf("chained delta digest %s != full digest %s", got, want)
	}
}

// TestApplyDeltaOnLoadedCube proves the snapshot round trip carries enough
// state for delta maintenance — the sub-δ ledger and the exception-mining
// switches: save the base cube, open it eagerly and lazily, apply the batch
// to the opened cube, and compare against a full build.
func TestApplyDeltaOnLoadedCube(t *testing.T) {
	t.Parallel()
	ds := datagen.MustGenerate(genConfig(17, 220))
	configs := map[string]core.Config{
		"exceptions off": {MinCount: 4, Tau: 0.5},
		"exceptions on":  {MinCount: 4, Epsilon: 0.05, MineExceptions: true},
		"exceptions+single-stage+tau": {MinCount: 4, Epsilon: 0.05, Tau: 0.5,
			MineExceptions: true, SingleStageExceptions: true},
	}
	for name, cfg := range configs {
		cfg.Plan, cfg.DeltaLedger, cfg.Workers = ds.DefaultPlan(), true, 2
		full, err := core.Build(ds.DB, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := hexDigest(t, full)

		const split = 170
		db := dbWith(ds, split)
		base, err := core.Build(db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, lazy := range []bool{false, true} {
			db := dbWith(ds, split)
			loaded := reopen(t, base, lazy)
			if !loaded.Config.DeltaLedger || loaded.Ledger() == nil {
				t.Fatalf("%s lazy=%v: loaded cube lost its sub-δ ledger", name, lazy)
			}
			if _, err := core.ApplyDelta(loaded, db, ds.DB.Records[split:]); err != nil {
				t.Fatal(err)
			}
			if got := hexDigest(t, loaded); got != want {
				t.Errorf("%s lazy=%v: loaded+delta digest %s != full digest %s", name, lazy, got, want)
			}
		}
	}
}

// reopen saves the cube to a file and opens it again: with core.Load, or
// with core.LoadCubeLazy when lazy is set.
func reopen(t testing.TB, cube *core.Cube, lazy bool) *core.Cube {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cube.fcb")
	var buf bytes.Buffer
	if err := cube.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out *core.Cube
	var err error
	if lazy {
		out, err = core.LoadCubeLazy(path, core.LazyOptions{})
	} else {
		out, err = core.Load(&buf)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = out.Close() })
	return out
}

// TestApplyDeltaOnClone exercises the serving path: delta-patch a Fork
// while the original stays bit-identical.
func TestApplyDeltaOnClone(t *testing.T) {
	t.Parallel()
	ds := datagen.MustGenerate(genConfig(23, 220))
	cfg := core.Config{
		MinCount: 4, Epsilon: 0.05, Tau: 0.5, Plan: ds.DefaultPlan(),
		MineExceptions: true, DeltaLedger: true, Workers: 2,
	}
	const split = 180
	db := dbWith(ds, split)
	base, err := core.Build(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseDigest := hexDigest(t, base)

	full, err := core.Build(ds.DB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := hexDigest(t, full)

	clone := base.Fork()
	if _, err := core.ApplyDelta(clone, db, ds.DB.Records[split:]); err != nil {
		t.Fatal(err)
	}
	if got := hexDigest(t, clone); got != want {
		t.Errorf("clone+delta digest %s != full digest %s", got, want)
	}
	if got := hexDigest(t, base); got != baseDigest {
		t.Errorf("delta on the clone mutated the original: digest %s != %s", got, baseDigest)
	}
}

// TestForkSymbolsOwnership: a fork shares its parent's symbol table, and
// only an exception-mining append interns items. A plain append leaves the
// table shared; an exception-mining one copies it first and leaves the
// parent's as it was.
func TestForkSymbolsOwnership(t *testing.T) {
	t.Parallel()
	ds := datagen.MustGenerate(genConfig(23, 220))
	const split = 180
	for _, exceptions := range []bool{false, true} {
		db := dbWith(ds, split)
		parent, err := core.Build(db, core.Config{
			MinCount: 4, Epsilon: 0.05, Plan: ds.DefaultPlan(),
			MineExceptions: exceptions, DeltaLedger: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		items := parent.Symbols.Len()
		fork := parent.Fork()
		if fork.Symbols != parent.Symbols {
			t.Errorf("exceptions=%t: Fork copied the symbol table", exceptions)
		}
		if _, err := core.ApplyDelta(fork, db, ds.DB.Records[split:]); err != nil {
			t.Fatal(err)
		}
		if shared := fork.Symbols == parent.Symbols; shared == exceptions {
			t.Errorf("exceptions=%t: after the append the fork shares its parent's table: %t", exceptions, shared)
		}
		if got := parent.Symbols.Len(); got != items {
			t.Errorf("exceptions=%t: the fork's append grew its parent's table from %d to %d items", exceptions, items, got)
		}
		if exceptions && fork.Symbols.Len() == items {
			t.Error("fixture exercises nothing: the batch interned no new item")
		}
	}
}

func TestApplyDeltaTypedErrors(t *testing.T) {
	t.Parallel()
	ds := datagen.MustGenerate(genConfig(29, 120))
	plan := ds.DefaultPlan()

	if _, err := core.ApplyDelta(nil, ds.DB, nil); !errors.Is(err, core.ErrNilCube) {
		t.Errorf("nil cube: got %v, want ErrNilCube", err)
	}

	fractional, err := core.Build(ds.DB, core.Config{MinSupport: 0.05, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.ApplyDelta(fractional, ds.DB, nil); !errors.Is(err, core.ErrAbsoluteMinCount) {
		t.Errorf("fractional threshold: got %v, want ErrAbsoluteMinCount", err)
	}

	cube, err := core.Build(ds.DB, core.Config{MinCount: 3, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.ApplyDelta(cube, nil, nil); !errors.Is(err, core.ErrNilDB) {
		t.Errorf("nil db: got %v, want ErrNilDB", err)
	}

	// One invalid record rejects its whole batch, naming the record; every
	// row is a copy of a good record with one thing wrong.
	good := ds.DB.Records[0]
	withDim := func(v hierarchy.NodeID) pathdb.Record {
		r := good
		r.Dims = append([]hierarchy.NodeID{v}, good.Dims[1:]...)
		return r
	}
	withStage := func(st pathdb.Stage) pathdb.Record {
		r := good
		r.Path = pathdb.Path{st}
		return r
	}
	wrongArity, emptyPath := good, good
	wrongArity.Dims = good.Dims[:1]
	emptyPath.Path = nil
	before, digest := ds.DB.Len(), hexDigest(t, cube)
	for _, tc := range []struct {
		name string
		bad  pathdb.Record
	}{
		{"wrong dimension count", wrongArity},
		{"out-of-range dimension value", withDim(hierarchy.NodeID(ds.DB.Schema.Dims[0].Len()))},
		{"empty path", emptyPath},
		{"interior concept", withDim(ds.DB.Schema.Dims[0].Parent(good.Dims[0]))},
		{"out-of-range location", withStage(pathdb.Stage{Location: hierarchy.NodeID(ds.DB.Schema.Location.Len()), Duration: 1})},
		{"negative duration", withStage(pathdb.Stage{Location: good.Path[0].Location, Duration: -1})},
	} {
		_, err := core.ApplyDelta(cube, ds.DB, []pathdb.Record{ds.DB.Records[1], tc.bad})
		var be *core.BatchError
		if !errors.As(err, &be) {
			t.Errorf("%s: got %v, want *BatchError", tc.name, err)
		} else if be.Index != 1 {
			t.Errorf("%s: BatchError.Index = %d, want 1", tc.name, be.Index)
		}
	}
	if ds.DB.Len() != before || hexDigest(t, cube) != digest {
		t.Errorf("a rejected batch changed state: %d -> %d records", before, ds.DB.Len())
	}

	otherCfg := genConfig(29, 50)
	otherCfg.NumDims = 3
	mismatched := datagen.MustGenerate(otherCfg)
	if _, err := core.ApplyDelta(cube, mismatched.DB, nil); !errors.Is(err, core.ErrSchemaMismatch) {
		t.Errorf("schema mismatch: got %v, want ErrSchemaMismatch", err)
	}
}

func TestApplyDeltaEmptyBatch(t *testing.T) {
	t.Parallel()
	ds := datagen.MustGenerate(genConfig(31, 150))
	cfg := core.Config{MinCount: 3, Plan: ds.DefaultPlan(), DeltaLedger: true}
	cube, err := core.Build(ds.DB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := hexDigest(t, cube)
	stats, err := core.ApplyDelta(cube, ds.DB, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BatchRecords != 0 || stats.CellsTouched != 0 || stats.CellsAdmitted != 0 {
		t.Errorf("empty batch stats = %+v, want zeros", stats)
	}
	if got := hexDigest(t, cube); got != before {
		t.Error("empty batch changed the cube")
	}
}

// TestApplyDeltaRefusesCompressedCube: Compress drops redundant cells, which
// Lookup then reports as sub-δ, so an append would admit them again from the
// batch alone and give them the batch's counts. The mark Compress leaves
// survives forks, FilterCells and Merge and both loaders, and every one of
// them refuses the append without touching the cube or the database.
func TestApplyDeltaRefusesCompressedCube(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			t.Parallel()
			refusesCompressed(t, seed)
		})
	}
}

func refusesCompressed(t *testing.T, seed int64) {
	const split = 180
	half := func(even bool) func([]hierarchy.NodeID) bool {
		return func(values []hierarchy.NodeID) bool { return (int(values[0])%2 == 0) == even }
	}
	ds := datagen.MustGenerate(genConfig(seed, 260))
	cube, err := core.Build(dbWith(ds, split), core.Config{
		MinCount: 4, Tau: 0.3, DeltaLedger: true, Plan: ds.DefaultPlan(), Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cube.Compress() == 0 {
		t.Fatalf("seed %d: fixture exercises nothing: no redundant cell", seed)
	}
	merged, err := core.Merge([]*core.Cube{cube.FilterCells(half(true)), cube.FilterCells(half(false))})
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*core.Cube{
		"compressed": cube,
		"fork":       cube.Fork(),
		"filter":     cube.FilterCells(half(true)),
		"merge":      merged,
		"load":       reopen(t, cube, false),
		"lazy":       reopen(t, cube, true),
	} {
		db := dbWith(ds, split)
		digest := hexDigest(t, c)
		if _, err := core.ApplyDelta(c, db, ds.DB.Records[split:]); !errors.Is(err, core.ErrCompressed) {
			t.Errorf("seed %d, %s: got %v, want ErrCompressed", seed, name, err)
		}
		if db.Len() != split || hexDigest(t, c) != digest {
			t.Errorf("seed %d, %s: a refused append changed state", seed, name)
		}
	}
}

// TestFrequentSingleStagesAreConditions pins what lets the exception miner
// do without a single-stage scan of its own: a stage frequent in a cell is
// a frequent {cell dims, stage} itemset, so the Shared run supplies it, and
// ApplyDelta's new-condition mine finds it once a batch makes it frequent.
// For every cell at a path level with concrete durations, every (aggregated
// prefix, duration) that at least δ of the cell's records carry must be a
// one-pin condition in the cell's cache — after Build and after each of
// four appends.
func TestFrequentSingleStagesAreConditions(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			t.Parallel()
			ds := datagen.MustGenerate(genConfig(seed, 260))
			db := dbWith(ds, 180)
			cube, err := core.Build(db, core.Config{
				MinCount: 4, Epsilon: 0.05, Tau: 0.6, Plan: ds.DefaultPlan(),
				MineExceptions: true, DeltaLedger: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			checked := frequentStagesAreConditions(t, cube, db, "build")
			for lo := 180; lo < 260; lo += 20 {
				if _, err := core.ApplyDelta(cube, db, ds.DB.Records[lo:lo+20]); err != nil {
					t.Fatal(err)
				}
				checked += frequentStagesAreConditions(t, cube, db, fmt.Sprintf("append up to %d", lo+20))
			}
			if checked == 0 {
				t.Fatal("no cell has a frequent single stage; the check is vacuous")
			}
		})
	}
}

// frequentStagesAreConditions checks the property above on one cube and
// returns how many frequent single stages it checked.
func frequentStagesAreConditions(t *testing.T, cube *core.Cube, db *pathdb.DB, when string) int {
	t.Helper()
	type stage struct {
		pin    flowgraph.StagePin
		prefix string
	}
	checked := 0
	for key, cb := range cube.Cuboids {
		level := cube.Symbols.PathLevels()[cb.Spec.PathLevel]
		if level.Time.Any {
			continue
		}
		for _, cell := range cb.SortedCells() {
			support := map[stage]int64{}
			for _, tid := range cell.TIDs() {
				ap := pathdb.AggregatePath(db.Records[tid].Path, level, nil)
				for i, st := range ap {
					support[stage{
						pin:    flowgraph.StagePin{Depth: i + 1, Location: st.Location, Duration: st.Duration},
						prefix: fmt.Sprint(ap[:i+1]),
					}]++
				}
			}
			conds, warm := cell.CachedConds()
			for st, n := range support {
				if n < cube.MinCount() {
					continue
				}
				if !warm || !conds.Has([]flowgraph.StagePin{st.pin}) {
					t.Fatalf("%s: cuboid %s, cell %v: stage %s (support %d ≥ δ = %d) is not a cached condition",
						when, key, cell.Values, st.prefix, n, cube.MinCount())
				}
				checked++
			}
		}
	}
	return checked
}
