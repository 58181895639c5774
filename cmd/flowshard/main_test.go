package main

import (
	"bytes"
	"encoding/json"
	"io"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/oracle"
)

// writeCube builds a small cube and saves it where flowshard can load it.
func writeCube(t *testing.T) (string, *core.Cube) {
	ds := oracle.Small()
	cube := oracle.Build(t, ds.DB, core.Config{MinCount: 3, Epsilon: 0.1, Plan: ds.DefaultPlan(),
		MineExceptions: true, SingleStageExceptions: true, Workers: runtime.GOMAXPROCS(0)})
	return oracle.File(t, oracle.Save(t, cube)), cube
}

func TestSplitAndVerify(t *testing.T) {
	cubePath, cube := writeCube(t)
	outDir := filepath.Join(t.TempDir(), "shards")

	var stdout, stderr bytes.Buffer
	err := run([]string{"-in", cubePath, "-shards", "3", "-out", outDir, "-verify"}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	var rep summary
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("bad summary JSON: %v\n%s", err, stdout.String())
	}
	if rep.Shards != 3 || !rep.Verified {
		t.Fatalf("summary = %+v, want 3 verified shards", rep)
	}
	if rep.Cells != cube.NumCells() {
		t.Errorf("summary cells = %d, cube has %d", rep.Cells, cube.NumCells())
	}
	if len(rep.Files) != 3 {
		t.Fatalf("summary lists %d files, want 3", len(rep.Files))
	}

	// The written shards are complete snapshots: loadable, disjoint, and
	// exhaustive.
	total := 0
	for i, path := range rep.Files {
		if want := filepath.Join(outDir, "shard-"+string(rune('0'+i))+"-of-3.fcb"); path != want {
			t.Errorf("files[%d] = %s, want %s", i, path, want)
		}
		total += oracle.Open(t, path).NumCells()
	}
	if total != cube.NumCells() {
		t.Errorf("shards hold %d cells total, input has %d", total, cube.NumCells())
	}
}

func TestFlagErrors(t *testing.T) {
	cubePath, _ := writeCube(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{}, "-in is required"},
		{[]string{"-in", cubePath, "-shards", "0"}, "shard count"},
		{[]string{"-in", filepath.Join(t.TempDir(), "missing.fcb")}, "no such file"},
	} {
		err := run(tc.args, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want error containing %q", tc.args, err, tc.want)
		}
	}
}
