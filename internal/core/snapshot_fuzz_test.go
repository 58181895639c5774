package core_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"slices"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/flowgraph"
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
	for _, data := range olderVersions(f) {
		f.Add(data)
	}
	for _, data := range retiredLayouts(f) {
		f.Add(data)
	}
	pins, counts := badGraphs(f, v2.Bytes())
	for _, name := range sortedKeys(pins) {
		f.Add(pins[name])
	}
	for _, name := range sortedKeys(counts) {
		f.Add(counts[name])
	}
	lengths := badLengths(f, v2.Bytes())
	for _, name := range sortedKeys(lengths) {
		f.Add(lengths[name])
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

// exceptionCell finds the first cell of snap, in section and cell order,
// whose flowgraph has an exception. It returns the graph and rewrite: a copy
// of snap with the cell's framed graph — the graph's byte length, then its
// flat encoding — replaced by cell, and the section's length and checksum
// made good again.
func exceptionCell(t testing.TB, snap []byte) (*flowgraph.Graph, func(cell []byte) []byte) {
	t.Helper()
	cube, err := core.Load(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	for k, key := range sortedKeys(cube.Cuboids) {
		cb := cube.Cuboids[key]
		for _, id := range sortedKeys(cb.Cells) {
			g := cb.Cells[id].Graph
			if g == nil || len(g.Exceptions()) == 0 {
				continue
			}
			orig := framed(core.AppendFlatGraph(nil, g.Columns()))
			return g, func(cell []byte) []byte {
				// Cuboid sections are written in key order: the k-th holds it.
				return oracle.RewriteSection(t, snap, oracle.SecCuboid, k, func(payload []byte) []byte {
					if !bytes.Contains(payload, orig) {
						t.Fatal("the cell's flat graph is not in its cuboid's section")
					}
					return bytes.Replace(payload, orig, cell, 1)
				})
			}
		}
	}
	t.Fatal("the fixture has no exception")
	return nil, nil
}

// framed is a flat graph's encoding as a cell carries it: after its length.
func framed(enc []byte) []byte {
	return append(binary.AppendUvarint(nil, uint64(len(enc))), enc...)
}

// badGraphs returns copies of snap in which the first cell with an
// exception has a flowgraph no path database can give (exceptionCell). In
// pins, the exception's first pin names a stage no path can have: a
// location outside the hierarchy, a depth below 1, and a depth outside
// int32, which a decoder that narrowed it would wrap to a small one.
// Rendering the first two panicked once they loaded. In counts, the node
// counts a transition distribution is read from do not add up: a path count
// the root's children do not make, a node reached by fewer paths than its
// children, a child no path reaches, and a first stage that lost paths its
// children still hold while the root's count balances. Only Flat.Check
// refuses either kind.
func badGraphs(t testing.TB, snap []byte) (pins, counts map[string][]byte) {
	t.Helper()
	g, rewrite := exceptionCell(t, snap)
	edited := func(edit func(f *flowgraph.Flat)) []byte {
		flat := g.Columns()
		edit(flat)
		return core.AppendFlatGraph(nil, flat)
	}
	// inner returns the first node from lo on with children.
	inner := func(f *flowgraph.Flat, lo int32) int {
		for i := int(lo); i < f.NumNodes(); i++ {
			if f.ChildLo[i+1] > f.ChildLo[i] {
				return i
			}
		}
		t.Fatal("the cell has no such node")
		return 0
	}
	bad := func(edit func(f *flowgraph.Flat)) []byte { return rewrite(framed(edited(edit))) }
	// The first pin's depth is the one varint where encodings of depths 1
	// and 2 differ; 1<<40 takes its place.
	one := edited(func(f *flowgraph.Flat) { f.PinDepth[0] = 1 })
	two := edited(func(f *flowgraph.Flat) { f.PinDepth[0] = 2 })
	at := 0
	for one[at] == two[at] {
		at++
	}
	wide := append(binary.AppendVarint(append([]byte(nil), one[:at]...), 1<<40), one[at+1:]...)
	return map[string][]byte{
			"pin location outside hierarchy": bad(func(f *flowgraph.Flat) { f.PinLoc[0] = 1 << 30 }),
			"pin depth below 1":              bad(func(f *flowgraph.Flat) { f.PinDepth[0] = -7 }),
			"pin depth outside int32":        rewrite(framed(wide)),
		}, map[string][]byte{
			"paths not the root's children": bad(func(f *flowgraph.Flat) { f.Paths++ }),
			"count below the children's": bad(func(f *flowgraph.Flat) {
				i := inner(f, f.ChildLo[1])
				f.Counts[i] -= f.Ends(i) + 1
			}),
			"child no path reaches": bad(func(f *flowgraph.Flat) { f.Counts[f.NumNodes()-1] = 0 }),
			"negative ends the counts balance": bad(func(f *flowgraph.Flat) {
				i := inner(f, 1)
				d := f.Ends(i) + 1
				f.Paths -= d
				f.Counts[i] -= d
			}),
		}
}

// badLengths returns copies of snap in which the first cell with an
// exception (exceptionCell) frames its flowgraph by a wrong byte length:
// one byte short of the graph (whose last byte is dropped, so the cells
// after it stay where a directory walk finds them), one byte past it (a
// zero byte added after the graph), and past the end of the section.
func badLengths(t testing.TB, snap []byte) map[string][]byte {
	t.Helper()
	g, rewrite := exceptionCell(t, snap)
	enc := core.AppendFlatGraph(nil, g.Columns())
	return map[string][]byte{
		"graph length one short":            rewrite(framed(enc[:len(enc)-1])),
		"graph length one long":             rewrite(framed(append(slices.Clip(enc), 0))),
		"graph length past the section end": rewrite(append(binary.AppendUvarint(nil, uint64(len(snap))), enc...)),
	}
}

// TestLoadersRejectBadPins: an exception pin naming a location outside the
// hierarchy, or a depth below 1 or outside int32, is refused alike by every
// reader of a cell's flat graph (wantGraphRefused).
func TestLoadersRejectBadPins(t *testing.T) {
	pins, _ := badGraphs(t, fixtureSnapshot(t))
	for name, data := range pins {
		t.Run(name, func(t *testing.T) { wantGraphRefused(t, data) })
	}
}

// TestLoadersRejectBadCounts: node counts no transition distribution can be
// read from are refused alike by every reader of a cell's flat graph
// (wantGraphRefused), though the snapshot carries no transition column for
// the decoder to compare them with.
func TestLoadersRejectBadCounts(t *testing.T) {
	_, counts := badGraphs(t, fixtureSnapshot(t))
	for name, data := range counts {
		t.Run(name, func(t *testing.T) { wantGraphRefused(t, data) })
	}
}

// TestLoadersRejectBadGraphLengths: a flowgraph that does not end exactly
// where its cell's length prefix says is refused alike by every reader of a
// cell's flat graph (wantGraphRefused), though a directory walk steps over
// it by that length without parsing it.
func TestLoadersRejectBadGraphLengths(t *testing.T) {
	for name, data := range badLengths(t, fixtureSnapshot(t)) {
		t.Run(name, func(t *testing.T) { wantGraphRefused(t, data) })
	}
}

// wantGraphRefused asserts that a snapshot with one bad flat graph in a
// cell with exceptions is refused by Load, by flowquery's open (a lazy open
// and Verify), by a lazy cube's exception scan, which reads the flat
// columns without Verify, and by lazy point reads of every cell, all with
// Load's error.
func wantGraphRefused(t *testing.T, data []byte) {
	t.Helper()
	_, err := core.Load(bytes.NewReader(data))
	if err == nil {
		t.Fatal("Load accepts the snapshot")
	}
	lz, verr := core.LoadCubeLazy(oracle.File(t, data), core.LazyOptions{})
	if verr == nil {
		verr = lz.Verify(context.Background())
		_ = lz.Close() // read-only mapping
	}
	if verr == nil || verr.Error() != err.Error() {
		t.Fatalf("open+Verify: %v; Load: %v", verr, err)
	}
	lz = oracle.OpenLazy(t, oracle.File(t, data), core.LazyOptions{})
	lz.TopExceptions(0)
	if lerr := lz.LazyErr(); lerr == nil || lerr.Error() != err.Error() {
		t.Fatalf("lazy TopExceptions: %v; Load: %v", lerr, err)
	}
	lz = oracle.OpenLazy(t, oracle.File(t, data), core.LazyOptions{})
	for _, spec := range lz.MaterializedSpecs() {
		tuples, _ := lz.EnumerateCellValues(spec)
		for _, values := range tuples {
			lz.Lookup(spec, values)
		}
	}
	if lerr := lz.LazyErr(); lerr == nil || lerr.Error() != err.Error() {
		t.Fatalf("lazy point reads: %v; Load: %v", lerr, err)
	}
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K ~string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
