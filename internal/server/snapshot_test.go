package server

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flowcube/internal/core"
)

// TestFileLoaderReadsEachFileOneWay: FileLoader sniffs the snapshot magic
// once. A snapshot with a bad checksum fails under both modes with its
// *core.CorruptSnapshotError, not re-read as a path database; a path
// database still builds; and a file that is neither names both readings.
func TestFileLoaderReadsEachFileOneWay(t *testing.T) {
	ds := ingestDataset(t, 5, 60)
	cube, err := core.Build(copyPrefix(ds, 60), core.Config{MinCount: 4, Plan: ds.DefaultPlan()})
	if err != nil {
		t.Fatal(err)
	}
	var snap, fdb bytes.Buffer
	if err := cube.Save(&snap); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.WriteTo(&fdb); err != nil {
		t.Fatal(err)
	}
	corrupt := snap.Bytes()
	corrupt[len(corrupt)/2] ^= 0x01
	dir := t.TempDir()
	paths := map[string]string{}
	for name, data := range map[string][]byte{"corrupt.fcb": corrupt, "paths.fdb": fdb.Bytes(), "garbage": []byte("neither\n")} {
		paths[name] = filepath.Join(dir, name)
		if err := os.WriteFile(paths[name], data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
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
