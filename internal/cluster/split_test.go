package cluster_test

import (
	"fmt"
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
		merged, err := core.Merge(parts)
		if err != nil {
			t.Fatalf("merge %d shards: %v", shards, err)
		}
		oracle.Same(t, fmt.Sprintf("%d shards merged", shards), cube, merged)
	}
}
