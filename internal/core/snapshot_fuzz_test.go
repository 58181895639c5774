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
	underived := underivedTransitions(f, v2.Bytes())
	for _, name := range sortedKeys(underived) {
		f.Add(underived[name])
	}
	pins := badPins(f, v2.Bytes())
	for _, name := range sortedKeys(pins) {
		f.Add(pins[name])
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

// underivedTransitions returns copies of snap in which one cell's flowgraph
// carries a transition column other than the one its tree derives, with
// the section's length and checksum made good again, so that only the flat
// graph's own check can tell: a child's weight off by one, terminations at
// the root, the last leaf's terminations missing, an outcome no child
// derives, terminations off by one, extra or of weight 0 where no path
// ends, and a child's outcome missing.
func underivedTransitions(t testing.TB, snap []byte) map[string][]byte {
	t.Helper()
	cube, err := core.Load(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	// The apex cuboid's one cell at path level 0: a graph with paths.
	cb := cube.Cuboids[sortedKeys(cube.Cuboids)[0]]
	cell := cb.Cells[sortedKeys(cb.Cells)[0]]
	if cell.Graph == nil || cell.Graph.Paths() == 0 {
		t.Fatal("the first cell of the fixture has no paths")
	}
	orig := core.AppendFlatGraph(nil, flowgraph.Flatten(cell.Graph))
	edits := map[string]func(f *flowgraph.Flat, t *flowgraph.Transitions){
		"child weight off by one": func(_ *flowgraph.Flat, t *flowgraph.Transitions) { t.Weights[t.Lo[0]]++ },
		"terminations at the root": func(f *flowgraph.Flat, t *flowgraph.Transitions) {
			f.Paths++
			t.Outcomes = slices.Insert(t.Outcomes, int(t.Lo[0]), flowgraph.Terminate)
			t.Weights = slices.Insert(t.Weights, int(t.Lo[0]), 1)
			for i := 1; i < len(t.Lo); i++ {
				t.Lo[i]++
			}
		},
		"leaf terminations missing": func(_ *flowgraph.Flat, t *flowgraph.Transitions) {
			t.Outcomes, t.Weights = t.Outcomes[:len(t.Outcomes)-1], t.Weights[:len(t.Weights)-1]
			t.Lo[len(t.Lo)-1]--
		},
		"outcome no child derives": func(_ *flowgraph.Flat, t *flowgraph.Transitions) {
			t.Outcomes, t.Weights = append(t.Outcomes, 1<<20), append(t.Weights, 1)
			t.Lo[len(t.Lo)-1]++
		},
		"terminations off by one": func(f *flowgraph.Flat, t *flowgraph.Transitions) {
			t.Weights[t.Lo[nodeWith(f, true, false)]]--
		},
		"extra terminations": func(f *flowgraph.Flat, t *flowgraph.Transitions) {
			spliceTransitions(t, nodeWith(f, false, true), 0, flowgraph.Terminate, 1)
		},
		"zero-weight terminations": func(f *flowgraph.Flat, t *flowgraph.Transitions) {
			spliceTransitions(t, nodeWith(f, false, true), 0, flowgraph.Terminate, 0)
		},
		"child outcome missing": func(f *flowgraph.Flat, t *flowgraph.Transitions) {
			spliceTransitions(t, nodeWith(f, false, true), 1)
		},
	}
	out := make(map[string][]byte, len(edits))
	for name, edit := range edits {
		flat := flowgraph.Flatten(cell.Graph)
		var tr flowgraph.Transitions
		flat.DeriveTransitions(&tr)
		edit(flat, &tr)
		// Cuboid sections are written in key order: the first holds it.
		out[name] = oracle.RewriteSection(t, snap, oracle.SecCuboid, 0, func(payload []byte) []byte {
			if !bytes.Contains(payload, orig) {
				t.Fatal("the cell's flat graph is not in the first cuboid section")
			}
			return bytes.Replace(payload, orig, core.AppendFlatWire(nil, flat, &tr), 1)
		})
	}
	return out
}

// nodeWith returns the first non-root node of f at which paths end (ends)
// or none do, and which has children or not (children).
func nodeWith(f *flowgraph.Flat, ends, children bool) int {
	for i := 1; i < f.NumNodes(); i++ {
		if (f.Ends(i) > 0) == ends && (f.ChildLo[i+1] > f.ChildLo[i]) == children {
			return i
		}
	}
	panic("the fixture cell has no such node")
}

// spliceTransitions deletes del entries at the start of node i's range of
// t and inserts the given (outcome, weight) pair there, if any.
func spliceTransitions(t *flowgraph.Transitions, i, del int, pair ...int64) {
	k := int(t.Lo[i])
	var outcomes, weights []int64
	if len(pair) == 2 {
		outcomes, weights = pair[:1], pair[1:]
	}
	t.Outcomes = slices.Replace(t.Outcomes, k, k+del, outcomes...)
	t.Weights = slices.Replace(t.Weights, k, k+del, weights...)
	for j := i + 1; j < len(t.Lo); j++ {
		t.Lo[j] += int32(len(outcomes) - del)
	}
}

// TestLoadersRejectUnderivedTransitions: a cube keeps no transition column
// — a node's transition distribution is its children's counts — so a
// snapshot whose column says anything else is refused by Load and by
// flowquery's open (a lazy open and Verify), not loaded with the column
// silently replaced.
func TestLoadersRejectUnderivedTransitions(t *testing.T) {
	for name, data := range underivedTransitions(t, fixtureSnapshot(t)) {
		t.Run(name, func(t *testing.T) {
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
		})
	}
}

// badPins returns copies of snap in which one exception's first pin names
// a stage no path can have, with the section's length and checksum made
// good again: a location outside the hierarchy, a depth below 1, and a
// depth outside int32, which a decoder that narrowed it would wrap to a
// small one. Rendering the first two panicked once they loaded.
func badPins(t testing.TB, snap []byte) map[string][]byte {
	t.Helper()
	cube, err := core.Load(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	// The first cell, in section and cell order, with an exception.
	for k, key := range sortedKeys(cube.Cuboids) {
		cb := cube.Cuboids[key]
		for _, id := range sortedKeys(cb.Cells) {
			g := cb.Cells[id].Graph
			if g == nil || len(g.Exceptions()) == 0 {
				continue
			}
			orig := core.AppendFlatGraph(nil, flowgraph.Flatten(g))
			rewrite := func(enc []byte) []byte {
				// Cuboid sections are written in key order: the k-th holds it.
				return oracle.RewriteSection(t, snap, oracle.SecCuboid, k, func(payload []byte) []byte {
					if !bytes.Contains(payload, orig) {
						t.Fatal("the cell's flat graph is not in its cuboid's section")
					}
					return bytes.Replace(payload, orig, enc, 1)
				})
			}
			edited := func(edit func(f *flowgraph.Flat)) []byte {
				flat := flowgraph.Flatten(g)
				edit(flat)
				return core.AppendFlatGraph(nil, flat)
			}
			// The first pin's depth is the one varint where encodings of
			// depths 1 and 2 differ; 1<<40 takes its place.
			one := edited(func(f *flowgraph.Flat) { f.PinDepth[0] = 1 })
			two := edited(func(f *flowgraph.Flat) { f.PinDepth[0] = 2 })
			at := 0
			for one[at] == two[at] {
				at++
			}
			wide := append(binary.AppendVarint(append([]byte(nil), one[:at]...), 1<<40), one[at+1:]...)
			return map[string][]byte{
				"pin location outside hierarchy": rewrite(edited(func(f *flowgraph.Flat) { f.PinLoc[0] = 1 << 30 })),
				"pin depth below 1":              rewrite(edited(func(f *flowgraph.Flat) { f.PinDepth[0] = -7 })),
				"pin depth outside int32":        rewrite(wide),
			}
		}
	}
	t.Fatal("the fixture has no exception")
	return nil
}

// TestLoadersRejectBadPins: an exception pin naming a location outside the
// hierarchy, or a depth below 1 or outside int32, is refused by Load and by
// flowquery's open (a lazy open and Verify) with the same error.
func TestLoadersRejectBadPins(t *testing.T) {
	for name, data := range badPins(t, fixtureSnapshot(t)) {
		t.Run(name, func(t *testing.T) {
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
		})
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
