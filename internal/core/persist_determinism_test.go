package core_test

import (
	"bytes"
	"runtime"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/oracle"
)

// TestSaveIsByteDeterministic guards the snapshot byte-determinism contract:
// saving the same cube twice — and saving a loaded copy of it — produces
// identical bytes. Cuboids and cells live in maps, so this only holds
// because Save walks them in sorted key order; a regression here shows up as
// snapshot digests that differ between runs, which breaks content-addressed
// storage and makes reload-diffing impossible.
func TestSaveIsByteDeterministic(t *testing.T) {
	_, cube := oracle.Table1(t, oracle.Cuts, oracle.Mined(0.5))
	oracle.Same(t, "a second save of the same cube", cube, cube)
	// Round trip: a loaded cube re-saves to the same bytes, so snapshots are
	// stable across process generations, not just within one.
	oracle.Same(t, "save→load→save", cube, oracle.Reopen(t, cube, false))
}

// TestCodecIsWorkerCountInvariant pins the parallel-codec contract: encoding
// cuboid sections on one goroutine or eight produces identical bytes, and
// decoding with any worker count yields cubes that re-save identically. Run
// under -race (scripts/check.sh) this also shakes out data races in the
// worker pools.
func TestCodecIsWorkerCountInvariant(t *testing.T) {
	_, cube := oracle.Table1(t, oracle.Cuts, oracle.Mined(0.5))
	cube.Config.Workers = 1
	seq := oracle.Save(t, cube)
	cube.Config.Workers = 8
	if d := oracle.Diff(seq, oracle.Save(t, cube)); d != "" {
		t.Fatalf("sequential and parallel saves differ: %s", d)
	}

	// Load decodes on GOMAXPROCS workers; pin it to both ends.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, workers := range []int{1, 8} {
		runtime.GOMAXPROCS(workers)
		loaded, err := core.Load(bytes.NewReader(seq))
		if err != nil {
			t.Fatalf("load with %d workers: %v", workers, err)
		}
		if d := oracle.Diff(seq, oracle.Save(t, loaded)); d != "" {
			t.Errorf("cube loaded with %d workers re-saves differently: %s", workers, d)
		}
	}
}
