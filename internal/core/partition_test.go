package core_test

import (
	"bytes"
	"strings"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/hierarchy"
)

// partitionedExample builds the full-featured example cube (ledger,
// exceptions, redundancy marks) and filters it into n disjoint parts by a
// value hash, the same shape internal/cluster produces.
func partitionedExample(t *testing.T, n int) (*core.Cube, []*core.Cube) {
	t.Helper()
	_, cube := buildExample(t, core.Config{
		MinCount:              2,
		Epsilon:               0.1,
		Tau:                   0.5,
		MineExceptions:        true,
		SingleStageExceptions: true,
		DeltaLedger:           true,
	})
	cube.MarkRedundancy(0.5)

	owner := func(values []hierarchy.NodeID) int {
		sum := 0
		for _, v := range values {
			sum += int(v)
		}
		return sum % n
	}
	parts := make([]*core.Cube, n)
	for i := range parts {
		i := i
		parts[i] = cube.FilterCells(func(values []hierarchy.NodeID) bool { return owner(values) == i })
	}
	return cube, parts
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

// TestMergeRestoresSaveDigest checks that splitting and merging is lossless
// at the byte level: the merged cube saves to exactly the bytes the
// original saves to, ledger included. This is the property that lets a
// sharded cluster be verified against (and rebuilt into) its unsplit
// snapshot.
func TestMergeRestoresSaveDigest(t *testing.T) {
	cube, parts := partitionedExample(t, 3)

	merged, err := core.Merge(parts)
	if err != nil {
		t.Fatal(err)
	}
	want, wn := saveDigest(t, cube)
	got, gn := saveDigest(t, merged)
	if want != got {
		t.Fatalf("merged save differs from original: %x (%d bytes) vs %x (%d bytes)", got, gn, want, wn)
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
// schema and plan survive, while cells and the ledger are dropped; anything
// that is not a v2 snapshot is rejected.
func TestLoadMetaStripsCells(t *testing.T) {
	cube, _ := partitionedExample(t, 2)

	var buf bytes.Buffer
	if err := cube.Save(&buf); err != nil {
		t.Fatal(err)
	}
	meta, err := core.LoadMeta(&buf)
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
	if got, want := len(meta.Symbols.PathLevels()), len(cube.Symbols.PathLevels()); got != want {
		t.Fatalf("meta has %d path levels, want %d", got, want)
	}

	for name, data := range nonV2Inputs(t) {
		_, err := core.LoadMeta(bytes.NewReader(data))
		wantNotV2(t, name, err)
	}
}
