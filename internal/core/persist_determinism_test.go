package core_test

import (
	"bytes"
	"crypto/sha256"
	"runtime"
	"testing"

	"flowcube/internal/core"
)

// saveDigest serializes the cube and returns the snapshot's SHA-256.
func saveDigest(t *testing.T, cube *core.Cube) ([32]byte, int) {
	t.Helper()
	var buf bytes.Buffer
	if err := cube.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(buf.Bytes()), buf.Len()
}

// TestSaveIsByteDeterministic guards the snapshot byte-determinism contract:
// saving the same cube twice — and saving a loaded copy of it — produces
// identical bytes. Cuboids and cells live in maps, so this only holds
// because Save walks them in sorted key order; a regression here shows up as
// snapshot digests that differ between runs, which breaks content-addressed
// storage and makes reload-diffing impossible.
func TestSaveIsByteDeterministic(t *testing.T) {
	_, cube := buildExample(t, core.Config{
		MinCount:              2,
		Epsilon:               0.1,
		Tau:                   0.5,
		MineExceptions:        true,
		SingleStageExceptions: true,
	})
	cube.MarkRedundancy(0.5)

	d1, n1 := saveDigest(t, cube)
	d2, n2 := saveDigest(t, cube)
	if d1 != d2 {
		t.Fatalf("two saves of the same cube differ: %x (%d bytes) vs %x (%d bytes)", d1, n1, d2, n2)
	}

	// Round trip: a loaded cube re-saves to the same bytes, so snapshots are
	// stable across process generations, not just within one.
	var buf bytes.Buffer
	if err := cube.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	d3, n3 := saveDigest(t, loaded)
	if d1 != d3 {
		t.Fatalf("save→load→save changed the bytes: %x (%d bytes) vs %x (%d bytes)", d1, n1, d3, n3)
	}
}

// TestCodecIsWorkerCountInvariant pins the parallel-codec contract: encoding
// cuboid sections on one goroutine or eight produces identical bytes, and
// decoding with any worker count yields cubes that re-save identically. Run
// under -race (scripts/check.sh) this also shakes out data races in the
// worker pools.
func TestCodecIsWorkerCountInvariant(t *testing.T) {
	_, cube := buildExample(t, core.Config{
		MinCount:              2,
		Epsilon:               0.1,
		Tau:                   0.5,
		MineExceptions:        true,
		SingleStageExceptions: true,
	})
	cube.MarkRedundancy(0.5)

	var seq, par bytes.Buffer
	cube.Config.Workers = 1
	if err := cube.Save(&seq); err != nil {
		t.Fatal(err)
	}
	cube.Config.Workers = 8
	if err := cube.Save(&par); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Fatalf("sequential and parallel saves differ: %d vs %d bytes", seq.Len(), par.Len())
	}

	// Load decodes on GOMAXPROCS workers; pin it to both ends.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, workers := range []int{1, 8} {
		runtime.GOMAXPROCS(workers)
		loaded, err := core.Load(bytes.NewReader(seq.Bytes()))
		if err != nil {
			t.Fatalf("load with %d workers: %v", workers, err)
		}
		d, _ := saveDigest(t, loaded)
		if want := sha256.Sum256(seq.Bytes()); d != want {
			t.Errorf("cube loaded with %d workers re-saves differently", workers)
		}
	}
}
