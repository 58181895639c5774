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
// faster; it may not change a bit of what it computes. Re-pinned once for
// format version 3, whose header records the exception-mining switches:
// every section but the header is byte-identical to the earlier pin's.
const pinnedBuildDigest = "6fec88722ba4b9cb9a63a0de5bf442b4e4d7f48f17f05046d4211daa994cef09"

// pinnedLedgerDigest is the same build with Config.DeltaLedger, recorded
// when the ledger was counted in one database pass per item level: it pins
// the ledger section, which a delta-against-rebuild comparison cannot (both
// sides would share a miscount).
const pinnedLedgerDigest = "5ab84d60167876f2246c9b0888fc6eb6d0ff5898656ebe3fd1e51891149333a0"

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
	for _, pin := range []struct {
		ledger bool
		digest string
	}{{false, pinnedBuildDigest}, {true, pinnedLedgerDigest}} {
		for _, workers := range []int{1, 4} {
			cube, err := core.Build(ds.DB, core.Config{
				MinSupport:            0.02,
				Epsilon:               0.1,
				Tau:                   0.5,
				Plan:                  ds.DefaultPlan(),
				MineExceptions:        true,
				SingleStageExceptions: true,
				Workers:               workers,
				DeltaLedger:           pin.ledger,
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
			if pin.ledger && cube.Ledger().Size() == 0 {
				t.Fatal("fixture exercises nothing: empty ledger")
			}
			d, n := saveDigest(t, cube)
			if got := hex.EncodeToString(d[:]); got != pin.digest {
				t.Errorf("ledger %t, workers %d: snapshot digest %s (%d bytes, %d exceptions, %d redundant), want %s",
					pin.ledger, workers, got, n, exceptions, redundant, pin.digest)
			}
		}
	}
}
