package core_test

import (
	"errors"
	"fmt"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/datagen"
	"flowcube/internal/flowgraph"
	"flowcube/internal/hierarchy"
	"flowcube/internal/oracle"
	"flowcube/internal/pathdb"
)

// TestForkSymbolsOwnership: a fork shares its parent's symbol table, and
// only an exception-mining append interns items. A plain append leaves the
// table shared; an exception-mining one copies it first and leaves the
// parent's as it was.
func TestForkSymbolsOwnership(t *testing.T) {
	t.Parallel()
	ds := oracle.Dataset(23, 220)
	const split = 180
	for _, exceptions := range []bool{false, true} {
		db := oracle.Prefix(ds.DB, split)
		parent := oracle.Build(t, db, core.Config{
			MinCount: 4, Epsilon: 0.05, Plan: ds.DefaultPlan(),
			MineExceptions: exceptions,
		})
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
	ds := oracle.Dataset(29, 120)
	plan := ds.DefaultPlan()

	if _, err := core.ApplyDelta(nil, ds.DB, nil); !errors.Is(err, core.ErrNilCube) {
		t.Errorf("nil cube: got %v, want ErrNilCube", err)
	}

	fractional := oracle.Build(t, ds.DB, core.Config{MinSupport: 0.05, Plan: plan})
	if _, err := core.ApplyDelta(fractional, ds.DB, nil); !errors.Is(err, core.ErrAbsoluteMinCount) {
		t.Errorf("fractional threshold: got %v, want ErrAbsoluteMinCount", err)
	}

	cube := oracle.Build(t, ds.DB, core.Config{MinCount: 3, Plan: plan})
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
	before, digest := ds.DB.Len(), oracle.Digest(t, cube)
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
	if ds.DB.Len() != before || oracle.Digest(t, cube) != digest {
		t.Errorf("a rejected batch changed state: %d -> %d records", before, ds.DB.Len())
	}

	otherCfg := oracle.Gen(29, 50)
	otherCfg.NumDims = 3
	mismatched := datagen.MustGenerate(otherCfg)
	if _, err := core.ApplyDelta(cube, mismatched.DB, nil); !errors.Is(err, core.ErrSchemaMismatch) {
		t.Errorf("schema mismatch: got %v, want ErrSchemaMismatch", err)
	}
}

func TestApplyDeltaEmptyBatch(t *testing.T) {
	t.Parallel()
	ds := oracle.Dataset(31, 150)
	cfg := core.Config{MinCount: 3, Plan: ds.DefaultPlan()}
	cube := oracle.Build(t, ds.DB, cfg)
	before := oracle.Digest(t, cube)
	stats, err := core.ApplyDelta(cube, ds.DB, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BatchRecords != 0 || stats.CellsTouched != 0 || stats.CellsAdmitted != 0 {
		t.Errorf("empty batch stats = %+v, want zeros", stats)
	}
	if got := oracle.Digest(t, cube); got != before {
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
	ds := oracle.Dataset(seed, 260)
	cube := oracle.Build(t, oracle.Prefix(ds.DB, split), core.Config{
		MinCount: 4, Tau: 0.3, Plan: ds.DefaultPlan(), Workers: 2,
	})
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
		"load":       oracle.Reopen(t, cube, false),
		"lazy":       oracle.Reopen(t, cube, true),
	} {
		db := oracle.Prefix(ds.DB, split)
		digest := oracle.Digest(t, c)
		if _, err := core.ApplyDelta(c, db, ds.DB.Records[split:]); !errors.Is(err, core.ErrCompressed) {
			t.Errorf("seed %d, %s: got %v, want ErrCompressed", seed, name, err)
		}
		if db.Len() != split || oracle.Digest(t, c) != digest {
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
			ds := oracle.Dataset(seed, 260)
			db := oracle.Prefix(ds.DB, 180)
			cube := oracle.Build(t, db, core.Config{
				MinCount: 4, Epsilon: 0.05, Tau: 0.6, Plan: ds.DefaultPlan(),
				MineExceptions: true,
			})
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
