package core_test

import (
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/datagen"
	"flowcube/internal/oracle"
)

// pinnedBuildDigest is the SHA-256 of the snapshot Build + Save wrote for
// the dataset below at commit 5f4dacf, when every distribution was a Go map
// and redundancy marking ran on one goroutine. The measure kernel may get
// faster; it may not change a bit of what it computes. Re-pinned once for
// format version 3, whose header records the exception-mining switches:
// every section but the header is byte-identical to the earlier pin's.
// Re-pinned a second time for format version 4, which writes no node
// transition distribution and no single-stage flag: the cube it loads to,
// every cell's count, flags, similarity and flat columns, is the one the
// version-3 bytes loaded to. Re-pinned a third time for format version 5,
// which writes each flowgraph's byte length before it: with those lengths
// removed and the header's version reading 4, the bytes are the version-4
// pin's, 883eaba789abe640564c88bad8eaeedee71f92957801ca549dfb05fa88c8d57d.
const pinnedBuildDigest = "b408756a6ea5fbfc49e40cd9aab2e8fc4f67e03aa7e66be8cb623f7427a81501"

// TestBuildDigestIsPinned builds a generated dataset with exceptions and
// τ = 0.5 and compares the snapshot with the digest recorded before the flat
// measure kernel — so a summation order, an exception order or a similarity
// that moves by one ulp fails here, not in a benchmark run.
func TestBuildDigestIsPinned(t *testing.T) {
	cfg := datagen.Default()
	cfg.Seed = 7
	cfg.NumPaths = 600
	cfg.NumDims = 2
	ds := datagen.MustGenerate(cfg)
	for _, workers := range []int{1, 4} {
		cube, err := core.Build(ds.DB, core.Config{
			MinSupport:     0.02,
			Epsilon:        0.1,
			Tau:            0.5,
			Plan:           ds.DefaultPlan(),
			MineExceptions: true,
			Workers:        workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		exceptions, redundant := 0, 0
		for _, cb := range cube.Cuboids {
			for _, cell := range cb.Cells {
				exceptions += len(cell.Graph.Exceptions())
				if cell.Redundant {
					redundant++
				}
			}
		}
		if exceptions == 0 || redundant == 0 {
			t.Fatalf("fixture exercises nothing: %d exceptions, %d redundant cells", exceptions, redundant)
		}
		if got := oracle.Digest(t, cube); got != pinnedBuildDigest {
			t.Errorf("workers %d: snapshot digest %s (%d exceptions, %d redundant), want %s",
				workers, got, exceptions, redundant, pinnedBuildDigest)
		}
	}
}
