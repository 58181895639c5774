package core_test

import (
	"bytes"
	"context"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/oracle"
)

// FuzzLoadSnapshot throws arbitrary byte streams at Load, which fronts files
// from disk and admin-triggered reloads: it must return an error or a
// structurally valid cube, never panic (TestLyingLengthAllocatesNothing
// bounds what a lying length allocates). Any cube it accepts must be a
// save→load fixed point (format v2's byte-determinism). Input without the v2
// magic is a *CorruptSnapshotError to both loaders. They share one reader,
// but Load decodes every cell up front and the lazy cube one at a time: each
// directory entry the lazy open yields is touched, and it reads as Load's
// cell, or both sides refuse the file. A fresh lazy open followed by Verify,
// flowquery -load's open, rejects exactly the inputs Load rejects.
func FuzzLoadSnapshot(f *testing.F) {
	v2 := bytes.NewBuffer(fixtureSnapshot(f))
	f.Add(v2.Bytes())
	f.Add([]byte("FCUBEv2\n"))
	for _, data := range nonV2Inputs(f) { // a gob stream, text, empty, a truncated magic
		f.Add(data)
	}
	// A few hand-mutated prefixes steer the fuzzer toward the section framing.
	truncated := append([]byte(nil), v2.Bytes()[:v2.Len()/2]...)
	f.Add(truncated)
	flipped := append([]byte(nil), v2.Bytes()...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	for _, data := range bytesAfterEnd(v2.Bytes()) {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		notV2 := !bytes.HasPrefix(data, []byte("FCUBEv2\n"))
		loaded, err := core.Load(bytes.NewReader(data))
		if notV2 {
			wantNotV2(t, "Load", err)
		}
		var first []byte
		if err == nil {
			first = oracle.Save(t, loaded)
			if d := oracle.Diff(first, oracle.Save(t, oracle.Reopen(t, loaded, false))); d != "" {
				t.Fatalf("save→load→save is not a fixed point: %s", d)
			}
		}

		// flowquery's open — LoadCubeLazy, then Verify before any touch —
		// rejects exactly what Load rejects, with Load's error.
		path := oracle.File(t, data)
		vz, verr := core.LoadCubeLazy(path, core.LazyOptions{})
		if verr == nil {
			verr = vz.Verify(context.Background())
			if verr != nil && vz.LazyErr() == nil {
				t.Fatalf("Verify's error %v is not recorded for LazyErr", verr)
			}
			_ = vz.Close() // read-only mapping
		}
		if (verr == nil) != (err == nil) || verr != nil && verr.Error() != err.Error() {
			t.Fatalf("open+Verify: %v; Load: %v", verr, err)
		}

		// The lazy open fronts the same files: whatever the input, it must
		// reject with an error or yield a cube whose deferred decodes
		// surface corruption as errors — never a panic — and whose Save
		// bytes represent the same cube the eager loader accepted.
		lz, lerr := core.LoadCubeLazy(path, core.LazyOptions{CacheBytes: 1 << 16})
		if notV2 {
			wantNotV2(t, "LoadCubeLazy", lerr)
		}
		if lerr != nil {
			return // rejected without panicking: fine
		}
		defer lz.Close()
		lz.NumCells()
		lz.CuboidSummaries()
		lz.TopExceptions(5)
		// Touch every directory entry: each cell decodes on its own, so a
		// bad one must come back as absence plus a sticky error.
		for _, spec := range lz.MaterializedSpecs() {
			tuples, _ := lz.EnumerateCellValues(spec)
			for _, values := range tuples {
				lz.Lookup(spec, values)
			}
		}
		vErr := lz.Validate()
		var lzBytes bytes.Buffer
		sErr := lz.Save(&lzBytes)
		if err != nil {
			// Both sides must refuse: what the eager loader rejects, a lazy
			// open that got this far finds on its whole-cube walk.
			if vErr == nil {
				t.Fatalf("lazy cube validates a snapshot the eager loader rejects: %v", err)
			}
			return
		}
		if err := lz.LazyErr(); err != nil {
			t.Fatalf("eagerly loadable snapshot recorded a lazy error: %v", err)
		}
		for key, cb := range loaded.Cuboids {
			tuples, _ := lz.EnumerateCellValues(cb.Spec)
			if len(tuples) != len(cb.Cells) {
				t.Fatalf("cuboid %s: lazy directory lists %d cells, eager cube holds %d", key, len(tuples), len(cb.Cells))
			}
			for _, cell := range cb.Cells {
				got, _ := lz.Lookup(cb.Spec, cell.Values)
				if got == nil || core.CellDigest(got) != core.CellDigest(cell) {
					t.Fatalf("cuboid %s cell %v: lazy point read differs from the eager cube", key, cell.Values)
				}
			}
		}
		if vErr != nil {
			t.Fatalf("eagerly loadable snapshot fails lazy validation: %v", vErr)
		}
		if sErr != nil {
			t.Fatalf("eagerly loadable snapshot fails lazy save: %v", sErr)
		}
		if !bytes.Equal(lzBytes.Bytes(), first) {
			// Raw section copies preserve non-canonical (padded-varint)
			// payloads the eager re-encode would normalize; the lazy bytes
			// must still round-trip to the eager fixed point.
			relz, err := core.Load(bytes.NewReader(lzBytes.Bytes()))
			if err != nil {
				t.Fatalf("lazy save does not load: %v", err)
			}
			if d := oracle.Diff(first, oracle.Save(t, relz)); d != "" {
				t.Fatalf("lazy save diverged from the eager cube: %s", d)
			}
		}
	})
}
