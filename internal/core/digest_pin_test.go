package core_test

import (
	"encoding/hex"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/datagen"
)

// pinnedBuildDigest is the SHA-256 of the snapshot Build + Save wrote for
// the dataset below at commit 5f4dacf, when every distribution was a Go map
// and redundancy marking ran on one goroutine. The measure kernel may get
// faster; it may not change a bit of what it computes.
const pinnedBuildDigest = "ad47f069c3af206edba303c024728761c5c88b7fe2b8ec1ee53d7eedb272e839"

// TestBuildDigestIsPinned builds a generated dataset with single-stage and
// frequent-segment exceptions and τ = 0.5 and compares the snapshot with the
// digest recorded before the flat measure kernel — so a summation order, an
// exception order or a similarity that moves by one ulp fails here, not in a
// benchmark run.
func TestBuildDigestIsPinned(t *testing.T) {
	cfg := datagen.Default()
	cfg.Seed = 7
	cfg.NumPaths = 600
	cfg.NumDims = 2
	ds := datagen.MustGenerate(cfg)
	for _, workers := range []int{1, 4} {
		cube, err := core.Build(ds.DB, core.Config{
			MinSupport:            0.02,
			Epsilon:               0.1,
			Tau:                   0.5,
			Plan:                  ds.DefaultPlan(),
			MineExceptions:        true,
			SingleStageExceptions: true,
			Workers:               workers,
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
		d, n := saveDigest(t, cube)
		if got := hex.EncodeToString(d[:]); got != pinnedBuildDigest {
			t.Errorf("workers %d: snapshot digest %s (%d bytes, %d exceptions, %d redundant), want %s",
				workers, got, n, exceptions, redundant, pinnedBuildDigest)
		}
	}
}
