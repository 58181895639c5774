package core_test

import (
	"bytes"
	"strings"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/oracle"
)

// partitionedExample is the full-featured Table-1 cube (exceptions,
// redundancy marks) and its split into n parts.
func partitionedExample(t *testing.T, n int) (*core.Cube, []*core.Cube) {
	_, cube := oracle.Table1(t, oracle.Cuts, oracle.Mined(0.5))
	return cube, oracle.Split(cube, n)
}

// TestFilterCellsIsExhaustiveAndDisjoint checks the partition contract the
// cluster split relies on: every cell lands in exactly one part, parts keep
// the full cuboid lattice (possibly with empty cuboids), and no part
// invents cells.
func TestFilterCellsIsExhaustiveAndDisjoint(t *testing.T) {
	cube, parts := partitionedExample(t, 3)

	total := 0
	for _, p := range parts {
		total += p.NumCells()
		if got, want := len(p.Cuboids), len(cube.Cuboids); got != want {
			t.Fatalf("part has %d cuboids, want the full lattice of %d", got, want)
		}
	}
	if total != cube.NumCells() {
		t.Fatalf("parts hold %d cells in total, original has %d", total, cube.NumCells())
	}
	for key, cb := range cube.Cuboids {
		for id, cell := range cb.Cells {
			owners := 0
			for _, p := range parts {
				if _, ok := p.Cuboids[key].Cells[id]; ok {
					owners++
				}
			}
			if owners != 1 {
				t.Fatalf("cell %v of cuboid %s lives in %d parts, want exactly 1", cell.Values, key, owners)
			}
		}
	}
}

// TestMergeRejectsOverlappingShards checks duplicate-cell detection: the
// same shard merged twice must fail loudly, not double-count.
func TestMergeRejectsOverlappingShards(t *testing.T) {
	_, parts := partitionedExample(t, 2)
	if _, err := core.Merge([]*core.Cube{parts[0], parts[0]}); err == nil {
		t.Fatal("merging the same shard twice succeeded, want a duplicate-cell error")
	} else if !strings.Contains(err.Error(), "already merged") {
		t.Fatalf("unexpected duplicate-merge error: %v", err)
	}
}

// TestLoadMetaStripsCells checks the router's preamble load: thresholds,
// schema and plan survive, while cells are dropped; anything
// that is not a v2 snapshot is rejected.
func TestLoadMetaStripsCells(t *testing.T) {
	cube, _ := partitionedExample(t, 2)

	buf := oracle.Save(t, cube)
	meta, err := core.LoadMeta(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if meta.NumCells() != 0 {
		t.Fatalf("meta holds %d cells, want none", meta.NumCells())
	}
	if meta.MinCount() != cube.MinCount() {
		t.Fatalf("meta min count %d, want %d", meta.MinCount(), cube.MinCount())
	}
	if got, want := meta.Config.Epsilon, cube.Config.Epsilon; got != want {
		t.Fatalf("meta epsilon %v, want %v", got, want)
	}
	if got, want := meta.Config.Tau, cube.Config.Tau; got != want {
		t.Fatalf("meta tau %v, want %v", got, want)
	}
	if got, want := len(meta.Schema.Dims), len(cube.Schema.Dims); got != want {
		t.Fatalf("meta has %d dimensions, want %d", got, want)
	}
	if got, want := len(meta.PathLevels()), len(cube.PathLevels()); got != want {
		t.Fatalf("meta has %d path levels, want %d", got, want)
	}

	for name, data := range nonV2Inputs(t) {
		_, err := core.LoadMeta(bytes.NewReader(data))
		wantNotV2(t, name, err)
	}
}
