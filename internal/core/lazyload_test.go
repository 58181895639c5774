package core_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/flowgraph"
	"flowcube/internal/hierarchy"
)

// writeSnapshot saves the cube to a file in dir and returns the path.
func writeSnapshot(t testing.TB, dir string, cube *core.Cube) string {
	t.Helper()
	path := filepath.Join(dir, "cube.fcb")
	var buf bytes.Buffer
	if err := cube.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// lazyFixture saves the standard fixture cube and lazily reopens it.
func lazyFixture(t *testing.T, opts core.LazyOptions) (eager, lazy *core.Cube) {
	t.Helper()
	eager = fixtureCube(t)
	path := writeSnapshot(t, t.TempDir(), eager)
	lazy, err := core.LoadCubeLazy(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = lazy.Close() })
	// Reload the eager cube from the same bytes so both sides went through
	// the same save (tids and mining state are not persisted).
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	eager, err = core.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	return eager, lazy
}

// TestLazyParityFullSurface proves a lazily opened snapshot answers the
// whole read surface byte-identically to the eager load: census, summaries,
// every cell query (exact and rolled up), ranked exceptions, validation,
// and Save bytes.
func TestLazyParityFullSurface(t *testing.T) {
	eager, lazy := lazyFixture(t, core.LazyOptions{})

	if got, want := lazy.NumCells(), eager.NumCells(); got != want {
		t.Fatalf("NumCells: %d, want %d", got, want)
	}
	if got, want := lazy.MinCount(), eager.MinCount(); got != want {
		t.Fatalf("MinCount: %d, want %d", got, want)
	}

	// Summaries: the lazy side answers from flat scans over the mapped
	// sections, never materializing a cell.
	es, ls := eager.CuboidSummaries(), lazy.CuboidSummaries()
	if len(es) != len(ls) {
		t.Fatalf("summaries: %d, want %d", len(ls), len(es))
	}
	for i := range es {
		if es[i].Key != ls[i].Key || es[i].Cells != ls[i].Cells ||
			es[i].Redundant != ls[i].Redundant || es[i].PathLevel != ls[i].PathLevel {
			t.Errorf("summary %d: %+v, want %+v", i, ls[i], es[i])
		}
	}
	if st, ok := lazy.LazyStats(); !ok {
		t.Fatal("LazyStats: not a lazy cube")
	} else if st.DecodedSections != 0 {
		t.Errorf("summaries decoded %d sections; flat scans should decode none", st.DecodedSections)
	}

	// Every materialized cell answers identically, including the roll-up
	// path (query each cell one item level above its own, which exercises
	// Answer's BFS over the lazy cell lookups).
	ask := func(c *core.Cube, spec core.CuboidSpec, values []hierarchy.NodeID) (ca core.CellAnswer, ok bool) {
		a, err := c.Answer(context.Background(), core.Query{Spec: spec, Values: values})
		if err != nil {
			return core.CellAnswer{}, false
		}
		return a.Cells[0], true
	}
	for key, cb := range eager.Cuboids {
		for _, cell := range cb.SortedCells() {
			a1, ok1 := ask(eager, cb.Spec, cell.Values)
			a2, ok2 := ask(lazy, cb.Spec, cell.Values)
			if ok1 != ok2 || a1.Exact != a2.Exact {
				t.Fatalf("cuboid %s cell %v: (exact=%v ok=%v), want (exact=%v ok=%v)",
					key, cell.Values, a2.Exact, ok2, a1.Exact, ok1)
			}
			if !ok1 {
				continue
			}
			if a1.Source.Count != a2.Source.Count || a1.Source.Redundant != a2.Source.Redundant {
				t.Errorf("cuboid %s cell %v: source cell mismatch", key, cell.Values)
			}
			if d := flowgraph.Divergence(a1.Graph, a2.Graph) + flowgraph.Divergence(a2.Graph, a1.Graph); d > 0 {
				t.Errorf("cuboid %s cell %v: graphs diverge by %g", key, cell.Values, d)
			}
			for _, p := range eager.ParentRefs(cb.Spec, cell.Values) {
				p1, pok1 := ask(eager, p.Spec, p.Values)
				p2, pok2 := ask(lazy, p.Spec, p.Values)
				if pok1 != pok2 || p1.Exact != p2.Exact {
					t.Fatalf("roll-up %s %v: (exact=%v ok=%v), want (exact=%v ok=%v)",
						p.Spec.Key(), p.Values, p2.Exact, pok2, p1.Exact, pok1)
				}
				if pok1 {
					if d := flowgraph.Divergence(p1.Graph, p2.Graph); d > 0 {
						t.Errorf("roll-up %s %v: graphs diverge by %g", p.Spec.Key(), p.Values, d)
					}
				}
			}
		}
	}

	// Ranked exceptions come out field-for-field identical (the lazy side
	// reads them from the flat struct-of-arrays columns).
	ex, lx := eager.TopExceptions(0), lazy.TopExceptions(0)
	if len(ex) != len(lx) {
		t.Fatalf("exceptions: %d, want %d", len(lx), len(ex))
	}
	for i := range ex {
		a, b := ex[i], lx[i]
		if a.Spec.Key() != b.Spec.Key() || core.CellKey(a.Values) != core.CellKey(b.Values) {
			t.Errorf("exception %d: cell %s/%v, want %s/%v",
				i, b.Spec.Key(), b.Values, a.Spec.Key(), a.Values)
		}
		if a.Support != b.Support ||
			math.Float64bits(a.DurationDeviation) != math.Float64bits(b.DurationDeviation) ||
			math.Float64bits(a.TransitionDeviation) != math.Float64bits(b.TransitionDeviation) {
			t.Errorf("exception %d: support/deviation mismatch", i)
		}
		if a.Node.Location != b.Node.Location || a.Node.Depth != b.Node.Depth {
			t.Errorf("exception %d: node mismatch", i)
		}
		ap, bp := a.Prefix, b.Prefix
		if len(ap) != len(bp) {
			t.Fatalf("exception %d: prefix length %d, want %d", i, len(bp), len(ap))
		}
		for j := range ap {
			if ap[j] != bp[j] {
				t.Errorf("exception %d: prefix[%d] = %d, want %d", i, j, bp[j], ap[j])
			}
		}
		if len(a.Condition) != len(b.Condition) {
			t.Fatalf("exception %d: condition length mismatch", i)
		}
		for j := range a.Condition {
			if a.Condition[j] != b.Condition[j] {
				t.Errorf("exception %d: condition[%d] mismatch", i, j)
			}
		}
		if a.Transitions.String() != b.Transitions.String() {
			t.Errorf("exception %d: transitions mismatch", i)
		}
	}

	if err := lazy.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}

	// Save bytes are identical: sorted sections raw-copy from the mapping.
	var eb, lb bytes.Buffer
	if err := eager.Save(&eb); err != nil {
		t.Fatal(err)
	}
	if err := lazy.Save(&lb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(eb.Bytes(), lb.Bytes()) {
		t.Fatalf("lazy Save produced %d bytes, eager %d; streams differ", lb.Len(), eb.Len())
	}

	// Materialize yields an eager cube with the same bytes.
	mat, err := lazy.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	var mb bytes.Buffer
	if err := mat.Save(&mb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(eb.Bytes(), mb.Bytes()) {
		t.Fatal("materialized cube saves different bytes")
	}
	if err := lazy.LazyErr(); err != nil {
		t.Fatalf("healthy snapshot recorded a lazy error: %v", err)
	}
}

// TestLazyConcurrentFirstTouch hammers every cell from many goroutines
// (run under -race in CI): single-flight dedup must decode each section
// exactly once, and every answer must match the eager cube.
func TestLazyConcurrentFirstTouch(t *testing.T) {
	eager, lazy := lazyFixture(t, core.LazyOptions{CacheBytes: -1})

	type q struct {
		spec   core.CuboidSpec
		values []hierarchy.NodeID
		count  int64
	}
	var queries []q
	for _, cb := range eager.Cuboids {
		for _, cell := range cb.SortedCells() {
			queries = append(queries, q{cb.Spec, cell.Values, cell.Count})
		}
	}

	const workers = 8
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, qu := range queries {
				cell, ok := lazy.Cell(qu.spec, qu.values)
				if !ok || cell.Count != qu.count {
					select {
					case errc <- errors.New("concurrent cell mismatch"):
					default:
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}

	st, ok := lazy.LazyStats()
	if !ok {
		t.Fatal("LazyStats: not a lazy cube")
	}
	if st.DecodedSections != int64(st.Sections) {
		t.Fatalf("decoded %d sections for %d sections of concurrent traffic; single-flight should decode each once",
			st.DecodedSections, st.Sections)
	}
	if st.Evictions != 0 || st.CachedSections != st.Sections {
		t.Fatalf("unbounded cache evicted: %d evictions, %d/%d resident",
			st.Evictions, st.CachedSections, st.Sections)
	}
}

// TestLazyCacheEviction squeezes the LRU to one resident section: touching
// every cuboid must evict, stats must say so, answers must stay correct,
// and the resident set must never exceed one entry.
func TestLazyCacheEviction(t *testing.T) {
	eager, lazy := lazyFixture(t, core.LazyOptions{CacheBytes: 1})

	for pass := 0; pass < 2; pass++ {
		for _, cb := range eager.Cuboids {
			for _, cell := range cb.SortedCells() {
				got, ok := lazy.Cell(cb.Spec, cell.Values)
				if !ok || got.Count != cell.Count {
					t.Fatalf("pass %d: cell %v of %s wrong under eviction pressure",
						pass, cell.Values, cb.Spec.Key())
				}
			}
		}
	}

	st, _ := lazy.LazyStats()
	if st.Sections < 2 {
		t.Fatalf("fixture has %d sections; eviction test needs at least 2", st.Sections)
	}
	if st.Evictions == 0 {
		t.Fatal("1-byte budget over multiple sections produced no evictions")
	}
	if st.CachedSections != 1 {
		t.Fatalf("%d sections resident, the 1-byte budget allows only the newest", st.CachedSections)
	}
	if st.CachedBytes <= 0 {
		t.Fatalf("resident bytes %d; the only entry always stays", st.CachedBytes)
	}
	if st.DecodedSections <= int64(st.Sections) {
		t.Fatalf("decoded %d sections across two eviction passes; expected re-decodes beyond %d",
			st.DecodedSections, st.Sections)
	}
}

// rewriteSection walks the v2 framing and applies mutate to the idx-th
// section of the given kind, re-framing it with a fresh length and valid
// CRC — corruption that open-time checksum validation cannot catch.
func rewriteSection(t *testing.T, data []byte, kind byte, idx int, mutate func([]byte) []byte) []byte {
	t.Helper()
	crcTable := crc32.MakeTable(crc32.Castagnoli)
	magic := []byte("FCUBEv2\n")
	if !bytes.HasPrefix(data, magic) {
		t.Fatal("fixture is not a v2 snapshot")
	}
	var out bytes.Buffer
	out.Write(magic)
	off := len(magic)
	seen := 0
	for off < len(data) {
		k := data[off]
		n, w := binary.Uvarint(data[off+1:])
		if w <= 0 {
			t.Fatalf("bad frame at offset %d", off)
		}
		payload := data[off+1+w : off+1+w+int(n)]
		off += 1 + w + int(n) + 4
		if k == kind && seen == idx {
			payload = mutate(append([]byte(nil), payload...))
		}
		if k == kind {
			seen++
		}
		out.WriteByte(k)
		var lbuf [binary.MaxVarintLen64]byte
		out.Write(lbuf[:binary.PutUvarint(lbuf[:], uint64(len(payload)))])
		out.Write(payload)
		var crcb [4]byte
		binary.LittleEndian.PutUint32(crcb[:], crc32.Checksum(payload, crcTable))
		out.Write(crcb[:])
		if k == 0 { // secEnd
			break
		}
	}
	if seen <= idx {
		t.Fatalf("snapshot has only %d sections of kind %d", seen, kind)
	}
	return out.Bytes()
}

// TestLazyCorruptSectionOnFirstTouch appends a garbage byte to one cuboid
// section payload behind a recomputed (valid) CRC: the lazy open must
// succeed — framing and checksums are fine — and the first decode of that
// section must surface a *CorruptSnapshotError through LazyErr, never a
// panic or a torn cell.
func TestLazyCorruptSectionOnFirstTouch(t *testing.T) {
	cube := fixtureCube(t)
	var buf bytes.Buffer
	if err := cube.Save(&buf); err != nil {
		t.Fatal(err)
	}
	const secCuboid = 4
	mutated := rewriteSection(t, buf.Bytes(), secCuboid, 0, func(p []byte) []byte {
		return append(p, 0x7f)
	})
	path := filepath.Join(t.TempDir(), "corrupt.fcb")
	if err := os.WriteFile(path, mutated, 0o644); err != nil {
		t.Fatal(err)
	}

	lazy, err := core.LoadCubeLazy(path, core.LazyOptions{})
	if err != nil {
		t.Fatalf("open must defer payload decoding, got %v", err)
	}
	defer lazy.Close()
	if err := lazy.LazyErr(); err != nil {
		t.Fatalf("error before any touch: %v", err)
	}

	// Validate decodes every section and must report the corruption as a
	// typed error.
	err = lazy.Validate()
	var cse *core.CorruptSnapshotError
	if !errors.As(err, &cse) {
		t.Fatalf("Validate: %v, want a *CorruptSnapshotError", err)
	}
	if !errors.As(lazy.LazyErr(), &cse) {
		t.Fatalf("LazyErr after touch: %v, want a *CorruptSnapshotError", lazy.LazyErr())
	}
	if _, err := lazy.Materialize(); err == nil {
		t.Fatal("Materialize of a corrupt section succeeded")
	}
	var sink bytes.Buffer
	if err := lazy.Save(&sink); err == nil {
		t.Fatal("Save of a corrupt section succeeded")
	}
}

// TestLazyOpenValidatesChecksums flips one payload bit without fixing the
// CRC: the open itself must fail — every section checksum is verified
// eagerly, so bit rot never reaches a decoder.
func TestLazyOpenValidatesChecksums(t *testing.T) {
	cube := fixtureCube(t)
	var buf bytes.Buffer
	if err := cube.Save(&buf); err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), buf.Bytes()...)
	flipped[len(flipped)/2] ^= 0x01
	path := filepath.Join(t.TempDir(), "flipped.fcb")
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if c, err := core.LoadCubeLazy(path, core.LazyOptions{}); err == nil {
		_ = c.Close()
		t.Fatal("open accepted a snapshot with a bad section checksum")
	}
}

// TestLazyRejectsNonV2: pre-v2 and garbage inputs fail the lazy open with
// the same typed rejection the streaming loaders give.
func TestLazyRejectsNonV2(t *testing.T) {
	dir := t.TempDir()
	for name, data := range nonV2Inputs(t) {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := core.LoadCubeLazy(path, core.LazyOptions{})
		wantNotV2(t, name, err)
	}
}

// TestLazyClose locks in the close semantics: idempotent, and touches after
// close report absence (with the closed error recorded) rather than reading
// a released mapping.
func TestLazyClose(t *testing.T) {
	eager, lazy := lazyFixture(t, core.LazyOptions{})
	if err := lazy.Close(); err != nil {
		t.Fatal(err)
	}
	if err := lazy.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	for _, cb := range eager.Cuboids {
		for _, cell := range cb.SortedCells() {
			if _, ok := lazy.Cell(cb.Spec, cell.Values); ok {
				t.Fatal("cell answered from a closed mapping")
			}
		}
	}
	if _, err := lazy.Materialize(); err == nil {
		t.Fatal("Materialize after Close succeeded")
	}
	// NumCells still answers (it reads only the in-memory section index).
	if got, want := lazy.NumCells(), eager.NumCells(); got != want {
		t.Fatalf("NumCells after Close: %d, want %d", got, want)
	}
	// Eager cubes are unaffected by Close.
	if err := eager.Close(); err != nil {
		t.Fatalf("Close on an eager cube: %v", err)
	}
}

// TestLazyCloneAndFilterMaterialize exercises the transparent
// materialization of the mutating surface: Materialize, FilterCells and
// Merge of lazy shards must behave exactly as on the eager cube.
func TestLazyCloneAndFilterMaterialize(t *testing.T) {
	eager, lazy := lazyFixture(t, core.LazyOptions{})

	clone, err := lazy.Materialize()
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	var eb, cb bytes.Buffer
	if err := eager.Save(&eb); err != nil {
		t.Fatal(err)
	}
	if err := clone.Save(&cb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(eb.Bytes(), cb.Bytes()) {
		t.Fatal("clone of the lazy cube saves different bytes")
	}
	// The clone is eager and mutable: redundancy re-marking must work.
	clone.MarkRedundancy(0.5)

	evenOdd := func(even bool) func(values []hierarchy.NodeID) bool {
		return func(values []hierarchy.NodeID) bool {
			return (int(values[0])%2 == 0) == even
		}
	}
	mergedLazy, err := core.Merge([]*core.Cube{lazy.FilterCells(evenOdd(true)), lazy.FilterCells(evenOdd(false))})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mergedLazy.NumCells(), eager.NumCells(); got != want {
		t.Fatalf("filter+merge round trip: %d cells, want %d", got, want)
	}
	var mb bytes.Buffer
	if err := mergedLazy.Save(&mb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(eb.Bytes(), mb.Bytes()) {
		t.Fatal("filter+merge of the lazy cube saves different bytes")
	}
}
