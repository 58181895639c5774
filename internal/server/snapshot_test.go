package server

import (
	"errors"
	"strings"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/datagen"
	"flowcube/internal/oracle"
)

// TestFileLoaderReadsEachFileOneWay: FileLoader sniffs the snapshot magic
// once. A snapshot with a bad checksum fails under both modes with its
// *core.CorruptSnapshotError, not re-read as a path database; a path
// database still builds; and a file that is neither names both readings.
func TestFileLoaderReadsEachFileOneWay(t *testing.T) {
	ds := oracle.Dataset(5, 60)
	cube := oracle.Build(t, oracle.Prefix(ds.DB, 60), core.Config{MinCount: 4, Plan: ds.DefaultPlan()})
	corrupt := oracle.Save(t, cube)
	corrupt[len(corrupt)/2] ^= 0x01
	paths := map[string]string{}
	for name, data := range map[string][]byte{"corrupt.fcb": corrupt, "garbage": []byte("neither\n")} {
		paths[name] = oracle.File(t, data)
	}
	paths["paths.fdb"] = oracle.DatasetFile(t, ds)
	for _, lazy := range []bool{false, true} {
		opts := BuildOptions{MinSupport: 0.05, Lazy: lazy}
		_, _, err := FileLoader(paths["corrupt.fcb"], opts)()
		var cse *core.CorruptSnapshotError
		if !errors.As(err, &cse) || strings.Contains(err.Error(), "path database") {
			t.Errorf("lazy=%v corrupt snapshot: %v, want only its *core.CorruptSnapshotError", lazy, err)
		}
		built, info, err := FileLoader(paths["paths.fdb"], opts)()
		if err != nil || info.DB == nil || built.NumCells() == 0 {
			t.Errorf("lazy=%v path database: %v, want a built cube with its database", lazy, err)
		}
		_, _, err = FileLoader(paths["garbage"], opts)()
		if err == nil || !strings.Contains(err.Error(), "neither a saved cube") || !strings.Contains(err.Error(), "nor a path database") {
			t.Errorf("lazy=%v garbage: %v, want both readings named", lazy, err)
		}
	}
}

// TestFileLoaderTakesWorkers: a snapshot opened eagerly or lazily runs its
// appends — the ledger's derivation among them — on BuildOptions.Workers
// goroutines, and since Workers is not persisted it re-saves the bytes it
// was read from.
func TestFileLoaderTakesWorkers(t *testing.T) {
	ds := oracle.Dataset(5, 60)
	snap := oracle.Save(t, oracle.Build(t, ds.DB, core.Config{MinCount: 4, Plan: ds.DefaultPlan()}))
	path := oracle.File(t, snap)
	for _, lazy := range []bool{false, true} {
		cube, _, err := FileLoader(path, BuildOptions{Workers: 2, Lazy: lazy})()
		if err != nil {
			t.Fatalf("lazy=%v: %v", lazy, err)
		}
		t.Cleanup(func() { _ = cube.Close() })
		if cube.Config.Workers != 2 {
			t.Errorf("lazy=%v: Config.Workers = %d, want 2", lazy, cube.Config.Workers)
		}
		if d := oracle.Diff(snap, oracle.Save(t, cube)); d != "" {
			t.Errorf("lazy=%v: the loaded cube re-saves other bytes: %s", lazy, d)
		}
	}
}

// TestWithDatabaseRejectsOtherSchema: a database whose schema is not the
// snapshot's — here a third dimension — fails the load with
// core.ErrSchemaMismatch, lazily and eagerly.
func TestWithDatabaseRejectsOtherSchema(t *testing.T) {
	ds := oracle.Dataset(5, 60)
	snap := oracle.File(t, oracle.Save(t, oracle.Build(t, ds.DB, core.Config{MinCount: 4, Plan: ds.DefaultPlan()})))
	cfg := oracle.Gen(5, 60)
	cfg.NumDims = 3
	other := oracle.DatasetFile(t, datagen.MustGenerate(cfg))
	for _, lazy := range []bool{false, true} {
		if _, _, err := WithDatabase(FileLoader(snap, BuildOptions{Lazy: lazy}), other)(); !errors.Is(err, core.ErrSchemaMismatch) {
			t.Errorf("lazy=%v: %v, want core.ErrSchemaMismatch", lazy, err)
		}
	}
}
