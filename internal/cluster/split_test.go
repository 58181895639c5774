package cluster_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"flowcube/internal/cluster"
	"flowcube/internal/core"
	"flowcube/internal/oracle"
)

// TestSplitMergeRestoresSaveDigest is the splitter's round-trip contract
// for every practical shard count: split, merge, and the merged cube saves
// to exactly the original snapshot bytes (the byte-determinism machinery of
// core's TestSaveIsByteDeterministic makes digest equality meaningful).
func TestSplitMergeRestoresSaveDigest(t *testing.T) {
	_, cube := oracle.Table1(t, oracle.Views, oracle.Mined(0.5))

	for _, shards := range []int{1, 2, 3, 4, 8} {
		parts, err := cluster.Split(cube, shards)
		if err != nil {
			t.Fatal(err)
		}
		if len(parts) != shards {
			t.Fatalf("Split(%d) returned %d parts", shards, len(parts))
		}
		total := 0
		for _, p := range parts {
			total += p.NumCells()
		}
		if total != cube.NumCells() {
			t.Fatalf("%d shards hold %d cells in total, original has %d", shards, total, cube.NumCells())
		}
		merged, err := cluster.Merge(parts)
		if err != nil {
			t.Fatalf("merge %d shards: %v", shards, err)
		}
		oracle.Same(t, fmt.Sprintf("%d shards merged", shards), cube, merged)
	}
}

// TestWriteShardsRoundTrips checks the on-disk path flowshard drives: shard
// files load back as cubes that merge into the original snapshot bytes.
func TestWriteShardsRoundTrips(t *testing.T) {
	_, cube := oracle.Table1(t, oracle.Views, oracle.Mined(0.5))
	dir := t.TempDir()
	files, err := cluster.WriteShards(cube, 3, dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 3 {
		t.Fatalf("WriteShards wrote %d files, want 3", len(files))
	}
	if got, want := files[1], filepath.Join(dir, cluster.ShardFileName(1, 3)); got != want {
		t.Fatalf("shard file %q, want %q", got, want)
	}
	parts := make([]*core.Cube, len(files))
	for i, path := range files {
		parts[i] = oracle.Open(t, path)
	}
	merged, err := cluster.Merge(parts)
	if err != nil {
		t.Fatal(err)
	}
	oracle.Same(t, "merged shard files", cube, merged)
}

// TestShardFilterKeepsOwnedCells checks the append-prune hook: filtering
// the full cube with every shard's filter reproduces the split exactly.
func TestShardFilterKeepsOwnedCells(t *testing.T) {
	_, cube := oracle.Table1(t, oracle.Views, oracle.Mined(0.5))
	parts, err := cluster.Split(cube, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range parts {
		filter, err := cluster.ShardFilter(i, 3)
		if err != nil {
			t.Fatal(err)
		}
		oracle.Same(t, fmt.Sprintf("ShardFilter(%d, 3) against the split shard", i), parts[i], filter(cube))
	}
	if _, err := cluster.ShardFilter(3, 3); err == nil {
		t.Fatal("ShardFilter(3, 3) succeeded, want a range error")
	}
	if _, err := cluster.ShardFilter(-1, 3); err == nil {
		t.Fatal("ShardFilter(-1, 3) succeeded, want a range error")
	}
}
