package core_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/hierarchy"
	"flowcube/internal/oracle"
)

// lazyFixture saves the Table-1 fixture cube and reopens it both ways.
func lazyFixture(t *testing.T, opts core.LazyOptions) (eager, lazy *core.Cube) {
	t.Helper()
	_, cube := oracle.Table1(t, oracle.Cuts, oracle.Mined(0.5))
	return oracle.Twin(t, cube, opts)
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
	if es, ls := eager.CuboidSummaries(), lazy.CuboidSummaries(); !reflect.DeepEqual(ls, es) {
		t.Errorf("summaries:\n lazy  %+v\n eager %+v", ls, es)
	}
	if st, ok := lazy.LazyStats(); !ok {
		t.Fatal("LazyStats: not a lazy cube")
	} else if st.DecodedCells != 0 {
		t.Errorf("summaries decoded %d cells; flat scans should decode none", st.DecodedCells)
	}

	// Every materialized cell answers identically, including the roll-up
	// path (query each cell one item level above its own, which exercises
	// Answer's BFS over the lazy cell lookups).
	ctx := context.Background()
	for key, cb := range eager.Cuboids {
		for _, cell := range cb.SortedCells() {
			refs := append(eager.ParentRefs(cb.Spec, cell.Values), core.CellRef{Spec: cb.Spec, Values: cell.Values})
			for _, r := range refs {
				q := core.Query{Spec: r.Spec, Values: r.Values}
				if got, want := answerSig(lazy.Answer(ctx, q)), answerSig(eager.Answer(ctx, q)); !reflect.DeepEqual(got, want) {
					t.Fatalf("cuboid %s cell %v, asked at %s %v:\n lazy  %v\n eager %v", key, cell.Values, r.Spec.Key(), r.Values, got, want)
				}
			}
		}
	}

	// Ranked exceptions come out field-for-field identical (the lazy side
	// reads them from the flat struct-of-arrays columns).
	exceptions := func(c *core.Cube) (out []string) {
		for _, x := range c.TopExceptions(0) {
			out = append(out, fmt.Sprintf("%s/%s %d %x %x %d@%d %v %v %s", x.Spec.Key(), cellKey(x.Values), x.Support,
				math.Float64bits(x.DurationDeviation), math.Float64bits(x.TransitionDeviation),
				x.Node.Location, x.Node.Depth, x.Prefix, x.Condition, x.Transitions))
		}
		return out
	}
	if got, want := exceptions(lazy), exceptions(eager); !reflect.DeepEqual(got, want) {
		t.Errorf("ranked exceptions:\n lazy  %v\n eager %v", got, want)
	}

	if err := lazy.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}

	// Save bytes are identical: sorted sections raw-copy from the mapping;
	// a fork shares the mapping and saves the same bytes.
	oracle.Same(t, "lazy Save", eager, lazy)
	oracle.Same(t, "Save of a fork of the lazy cube", eager, lazy.Fork())
	if err := lazy.LazyErr(); err != nil {
		t.Fatalf("healthy snapshot recorded a lazy error: %v", err)
	}
}

// TestLazyConcurrentFirstTouch releases many goroutines onto the same cold
// cell at once, then onto every cell (run under -race -count=10 in CI):
// single-flight dedup must decode a cell exactly once however many readers
// race for it, and every answer must match the eager cube.
func TestLazyConcurrentFirstTouch(t *testing.T) {
	eager, lazy := lazyFixture(t, core.LazyOptions{CacheBytes: -1})

	type q struct {
		spec   core.CuboidSpec
		values []hierarchy.NodeID
		digest [sha256.Size]byte
	}
	var queries []q
	for _, cb := range eager.Cuboids {
		for _, cell := range cb.SortedCells() {
			queries = append(queries, q{cb.Spec, cell.Values, core.CellDigest(cell)})
		}
	}

	const workers = 8
	hammer := func(qs []q) {
		t.Helper()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for _, qu := range qs {
					cell, ok := lazy.Cell(qu.spec, qu.values)
					if !ok || core.CellDigest(cell) != qu.digest {
						t.Errorf("cell %v of %s differs from the eager cube under concurrent first touch",
							qu.values, qu.spec.Key())
						return
					}
				}
			}()
		}
		close(start)
		wg.Wait()
	}

	hammer(queries[:1])
	st, ok := lazy.LazyStats()
	if !ok {
		t.Fatal("LazyStats: not a lazy cube")
	}
	if st.DecodedCells != 1 {
		t.Fatalf("%d goroutines on one cold cell ran %d decodes; single-flight should run one", workers, st.DecodedCells)
	}
	if st.CachedEntries != 2 {
		t.Fatalf("%d entries resident after one cell; want its section's directory and the cell", st.CachedEntries)
	}

	hammer(queries)
	st, _ = lazy.LazyStats()
	if st.DecodedCells != int64(len(queries)) {
		t.Fatalf("decoded %d cells for %d distinct cells of concurrent traffic; each should decode once",
			st.DecodedCells, len(queries))
	}
	if want := st.Sections + len(queries); st.Evictions != 0 || st.CachedEntries != want {
		t.Fatalf("unbounded cache evicted: %d evictions, %d entries resident, want %d directories + %d cells",
			st.Evictions, st.CachedEntries, st.Sections, len(queries))
	}
}

// TestLazyCacheEviction squeezes the LRU to one resident entry: every read
// must rebuild its directory and re-decode its cell, stats must say so,
// answers must stay correct, and the resident set must never exceed one
// entry.
func TestLazyCacheEviction(t *testing.T) {
	eager, lazy := lazyFixture(t, core.LazyOptions{CacheBytes: 1})

	reads := 0
	for pass := 0; pass < 2; pass++ {
		for _, cb := range eager.Cuboids {
			for _, cell := range cb.SortedCells() {
				got, ok := lazy.Cell(cb.Spec, cell.Values)
				if !ok || core.CellDigest(got) != core.CellDigest(cell) {
					t.Fatalf("pass %d: cell %v of %s wrong under eviction pressure",
						pass, cell.Values, cb.Spec.Key())
				}
				reads++
				if st, _ := lazy.LazyStats(); st.CachedEntries != 1 {
					t.Fatalf("%d entries resident, the 1-byte budget allows only the newest", st.CachedEntries)
				}
			}
		}
	}

	st, _ := lazy.LazyStats()
	if st.CachedBytes <= 0 {
		t.Fatalf("resident bytes %d; the only entry always stays", st.CachedBytes)
	}
	// Every read found neither its directory nor its cell resident: the
	// directory's insertion evicted the previous cell, the cell's the
	// directory.
	if st.DecodedCells != int64(reads) {
		t.Fatalf("decoded %d cells for %d reads; under a 1-byte budget every read re-decodes", st.DecodedCells, reads)
	}
	if st.CacheMisses != int64(2*reads) || st.CacheHits != 0 {
		t.Fatalf("%d misses and %d hits for %d reads; want a directory and a cell miss each", st.CacheMisses, st.CacheHits, reads)
	}
	if st.Evictions != int64(2*reads-1) {
		t.Fatalf("%d evictions for %d reads; every insertion but the first evicts", st.Evictions, reads)
	}
}

// corruptFixture saves the fixture cube with mutate applied to the payload
// of one cuboid section — the first, in file order, holding at least
// minCells cells — behind a recomputed (valid) CRC, and lazily opens the
// result: the open must succeed, framing and checksums being fine. mutate
// also gets the byte range of every cell of the intact payload, in key
// order. It returns the mutated bytes, the lazy cube, and the cuboid as the
// intact fixture holds it.
func corruptFixture(t *testing.T, minCells int, mutate func(payload []byte, cells [][2]int) []byte) ([]byte, *core.Cube, *core.Cuboid) {
	t.Helper()
	cube, intact := lazyFixture(t, core.LazyOptions{})
	idx := -1
	var target *core.Cuboid
	for i, spec := range cube.MaterializedSpecs() { // ascending key order: the file's
		if cb := cube.Cuboid(spec); len(cb.Cells) >= minCells {
			idx, target = i, cb
			break
		}
	}
	if idx < 0 {
		t.Fatalf("fixture has no cuboid of %d cells", minCells)
	}
	cells := intact.SectionCellRangesForTest(target.Spec)
	if len(cells) != len(target.Cells) {
		t.Fatalf("directory of %s lists %d cells, the cuboid holds %d", target.Spec.Key(), len(cells), len(target.Cells))
	}
	mutated := oracle.RewriteSection(t, oracle.Save(t, cube), oracle.SecCuboid, idx, func(p []byte) []byte { return mutate(p, cells) })
	lazy := oracle.OpenLazy(t, oracle.File(t, mutated), core.LazyOptions{}) // the open defers payload decoding
	if err := lazy.LazyErr(); err != nil {
		t.Fatalf("error before any touch: %v", err)
	}
	return mutated, lazy, target
}

// wantCorrupt asserts err is a *CorruptSnapshotError.
func wantCorrupt(t *testing.T, what string, err error) {
	t.Helper()
	var cse *core.CorruptSnapshotError
	if !errors.As(err, &cse) {
		t.Fatalf("%s: %v, want a *CorruptSnapshotError", what, err)
	}
}

// TestLazyCorruptSectionOnFirstTouch covers the corruption only a whole-
// section walk can see — a garbage byte after the last cell, the same cell
// stored twice, or two cells stored out of key order: the eager loader must
// reject the file, and on the lazy cube the directory build must fail for
// every cell of the section, surfacing a *CorruptSnapshotError through
// LazyErr, never a panic or a torn cell, and Validate, Merge and Save must
// fail too.
func TestLazyCorruptSectionOnFirstTouch(t *testing.T) {
	mutations := map[string]struct {
		minCells int
		mutate   func(p []byte, cells [][2]int) []byte
	}{
		"trailing byte": {1, func(p []byte, _ [][2]int) []byte { return append(p, 0x7f) }},
		"duplicate cell": {1, func(p []byte, cells [][2]int) []byte {
			if len(cells) != 1 || p[cells[0][0]-1] != 1 {
				t.Fatalf("want a one-cell section whose header ends in its cell count, got %d cells", len(cells))
			}
			p[cells[0][0]-1] = 2
			return append(p, p[cells[0][0]:cells[0][1]]...)
		}},
		"unsorted cells": {2, func(p []byte, cells [][2]int) []byte {
			a, b := cells[0], cells[1]
			out := append([]byte(nil), p[:a[0]]...)
			out = append(out, p[b[0]:b[1]]...)
			out = append(out, p[a[0]:a[1]]...)
			return append(out, p[b[1]:]...)
		}},
	}
	for name, m := range mutations {
		t.Run(name, func(t *testing.T) {
			mutated, lazy, cb := corruptFixture(t, m.minCells, m.mutate)
			_, err := core.Load(bytes.NewReader(mutated))
			wantCorrupt(t, "eager Load", err)
			for _, cell := range cb.SortedCells() {
				if got, ok := lazy.Cell(cb.Spec, cell.Values); ok {
					t.Fatalf("cell %v of the corrupt section answered %v", cell.Values, got)
				}
			}
			wantCorrupt(t, "LazyErr after touch", lazy.LazyErr())
			wantCorrupt(t, "Validate", lazy.Validate())
			if _, err := core.Merge([]*core.Cube{lazy}); err == nil {
				t.Fatal("Merge of a corrupt section succeeded")
			}
			var sink bytes.Buffer
			if err := lazy.Save(&sink); err == nil {
				t.Fatal("Save of a corrupt section succeeded")
			}
		})
	}
}

// TestLazyCorruptCellIsContained breaks one flowgraph inside a section
// whose walk still succeeds (the root node's location is moved outside the
// hierarchy — structure only Unflatten checks): touching that cell records a
// sticky *CorruptSnapshotError and reports absence, its sibling cells answer
// as if nothing happened, and the whole-cube decoders still refuse the file.
func TestLazyCorruptCellIsContained(t *testing.T) {
	_, lazy, cb := corruptFixture(t, 2, func(p []byte, cells [][2]int) []byte {
		// The first cell: value count and values, path count, flags,
		// similarity; then its graph: path count, node count, locations.
		off := cells[0][0]
		skip := func(varints int) {
			for ; varints > 0; varints-- {
				_, n := binary.Uvarint(p[off:])
				off += n
			}
		}
		nv, n := binary.Uvarint(p[off:])
		off += n
		skip(int(nv) + 1)
		if p[off]&2 == 0 {
			t.Fatal("the fixture's first cell carries no flowgraph")
		}
		off += 1 + 8
		skip(2)
		p[off] = 0x7f // one byte for one byte: every later offset holds
		return p
	})
	cells := cb.SortedCells()
	if got, ok := lazy.Cell(cb.Spec, cells[0].Values); ok {
		t.Fatalf("the corrupt cell answered %v", got)
	}
	if _, materialized := lazy.Lookup(cb.Spec, cells[0].Values); !materialized {
		t.Fatal("one bad cell made its whole cuboid read as not materialized")
	}
	wantCorrupt(t, "LazyErr after touching the corrupt cell", lazy.LazyErr())
	for _, cell := range cells[1:] {
		got, ok := lazy.Cell(cb.Spec, cell.Values)
		if !ok || core.CellDigest(got) != core.CellDigest(cell) {
			t.Fatalf("sibling cell %v does not answer correctly beside the corrupt one", cell.Values)
		}
	}
	wantCorrupt(t, "Validate", lazy.Validate())
	if _, err := core.Merge([]*core.Cube{lazy}); err == nil {
		t.Fatal("Merge over a corrupt cell succeeded")
	}
}

// TestLazyOpenValidatesChecksums flips one payload bit without fixing the
// CRC: the open itself must fail — every section checksum is verified
// eagerly, so bit rot never reaches a decoder.
func TestLazyOpenValidatesChecksums(t *testing.T) {
	_, cube := oracle.Table1(t, oracle.Cuts, oracle.Mined(0.5))
	flipped := oracle.Save(t, cube)
	flipped[len(flipped)/2] ^= 0x01
	path := oracle.File(t, flipped)
	if c, err := core.LoadCubeLazy(path, core.LazyOptions{}); err == nil {
		_ = c.Close()
		t.Fatal("open accepted a snapshot with a bad section checksum")
	}
}

// TestLazyRejectsNonV2: pre-v2 and garbage inputs fail the lazy open with
// the same typed rejection the streaming loaders give.
func TestLazyRejectsNonV2(t *testing.T) {
	for name, data := range nonV2Inputs(t) {
		_, err := core.LoadCubeLazy(oracle.File(t, data), core.LazyOptions{})
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
	if err := lazy.Save(io.Discard); err == nil {
		t.Fatal("Save after Close succeeded")
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

// TestLazyMutatorsMatchEager runs the mutating surface on a lazily opened
// cube and on its eager twin — Fork, MarkRedundancy, Compress, DropCuboid,
// FilterCells and Merge — and requires the same Save bytes from both after
// every step: a mapped base takes writes the way a cell map does. The
// opened cube itself must be untouched by what its forks did.
func TestLazyMutatorsMatchEager(t *testing.T) {
	eager, lazy := lazyFixture(t, core.LazyOptions{})
	want := oracle.Save(t, lazy)
	if got := len(lazy.Cuboids); got != len(eager.Cuboids) {
		t.Fatalf("lazy cube holds %d cuboids, the snapshot %d sections", got, len(eager.Cuboids))
	}
	same := func(step string, e, l *core.Cube) {
		t.Helper()
		if !oracle.Same(t, step+" on the lazy side", e, l) {
			t.FailNow()
		}
	}
	ef, lf := eager.Fork(), lazy.Fork()
	same("Fork", ef, lf)
	ef.Config.Workers, lf.Config.Workers = 2, 2 // marking runs in parallel over the overlay
	if got, want := lf.MarkRedundancy(0.3), ef.MarkRedundancy(0.3); got != want {
		t.Fatalf("MarkRedundancy: %d redundant cells, want %d", got, want)
	}
	same("MarkRedundancy", ef, lf)
	spec := eager.MaterializedSpecs()[1]
	if lf.DropCuboid(spec) == nil || ef.DropCuboid(spec) == nil {
		t.Fatalf("DropCuboid(%s) dropped nothing", spec.Key())
	}
	same("DropCuboid", ef, lf)

	// Compress over an untouched base hides its redundant cells unread.
	ec, lc := eager.Fork(), lazy.Fork()
	before, _ := lazy.LazyStats()
	if got, want := lc.Compress(), ec.Compress(); got != want || want == 0 {
		t.Fatalf("Compress removed %d cells, want %d (> 0)", got, want)
	}
	if after, _ := lazy.LazyStats(); after.DecodedCells != before.DecodedCells {
		t.Errorf("Compress of an untouched base decoded %d cells", after.DecodedCells-before.DecodedCells)
	}
	same("Compress", ec, lc)

	evenOdd := func(even bool) func(values []hierarchy.NodeID) bool {
		return func(values []hierarchy.NodeID) bool {
			return (int(values[0])%2 == 0) == even
		}
	}
	for _, cubes := range [][2]*core.Cube{{eager, lazy}, {ef, lf}} {
		e, l := cubes[0], cubes[1]
		ee, le := e.FilterCells(evenOdd(true)), l.FilterCells(evenOdd(true))
		same("FilterCells", ee, le)
		merged, err := core.Merge([]*core.Cube{le, l.FilterCells(evenOdd(false))})
		if err != nil {
			t.Fatal(err)
		}
		same("FilterCells+Merge", e, merged)
	}
	if d := oracle.Diff(want, oracle.Save(t, lazy)); d != "" {
		t.Fatal("mutating forks of the lazy cube changed what it saves: " + d)
	}
}

// cellSig is a comparable identity for a possibly absent cell.
func cellSig(cell *core.Cell) string {
	if cell == nil {
		return "absent"
	}
	return fmt.Sprintf("%x", core.CellDigest(cell))
}

func cellSigs(cells []*core.Cell) []string {
	out := make([]string, len(cells))
	for i, cell := range cells {
		out[i] = cellSig(cell)
	}
	return out
}

func specKeys(specs []core.CuboidSpec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Key()
	}
	return out
}

func tupleKeys(tuples [][]hierarchy.NodeID) []string {
	out := make([]string, len(tuples))
	for i, v := range tuples {
		out[i] = cellKey(v)
	}
	return out
}

// answerSig flattens an Answer (or its error) to comparable strings.
func answerSig(a *core.Answer, err error) []string {
	if err != nil {
		return []string{"error: " + err.Error()}
	}
	out := []string{fmt.Sprintf("truncated=%v skipped=%d", a.Truncated, a.Skipped)}
	for _, ca := range a.Cells {
		folded := make([]string, len(ca.Folded))
		for i, r := range ca.Folded {
			folded[i] = r.Spec.Key() + "/" + cellKey(r.Values)
		}
		out = append(out, fmt.Sprintf("%s/%s %s exact=%v from %s %s folded=%v graph %x",
			ca.Spec.Key(), cellKey(ca.Values), ca.Provenance, ca.Exact,
			ca.SourceSpec.Key(), cellSig(ca.Source), folded, sha256.Sum256(core.EncodeGraph(ca.Graph))))
	}
	return out
}

// TestLazyCellUnitMatchesEagerRandomPartialCubes is the property test of the
// cell-granular lazy path: over random partial cubes — a random subset of
// cuboids dropped — every cell of every cuboid of the full lattice, kept or
// dropped, reads the same through the lazy cube as through the eager one:
// Lookup, Census, FoldSources, EnumerateCellValues, Partial, and Answer for
// the cell, its drill-downs and its slices, cells compared by CellDigest.
// It runs at a 1-byte budget (every read rebuilds its directory and
// re-decodes its cell) and unbounded (everything stays resident), and under
// -tags nommap through the pread fallback.
func TestLazyCellUnitMatchesEagerRandomPartialCubes(t *testing.T) {
	_, iceberg := oracle.Table1(t, oracle.Cuts, core.Config{MinCount: 1, Tau: 0.5})
	_, featured := oracle.Table1(t, oracle.Cuts, oracle.Mined(0.5))
	inputs := map[string]*core.Cube{"exceptions": featured, "iceberg1": iceberg}
	ctx := context.Background()
	computed := 0
	for name, full := range inputs {
		lattice := full.MaterializedSpecs()
		for seed := int64(0); seed < 4; seed++ {
			pruned, _ := oracle.Pruned(t, full, oracle.Random(seed, 2, 5))
			for _, budget := range []int64{1, -1} {
				eager, lazy := oracle.Twin(t, pruned, core.LazyOptions{CacheBytes: budget})
				same := func(what string, got, want any) {
					t.Helper()
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s seed %d budget %d: %s:\n lazy  %v\n eager %v", name, seed, budget, what, got, want)
					}
				}
				same("MaterializedSpecs", specKeys(lazy.MaterializedSpecs()), specKeys(eager.MaterializedSpecs()))
				for _, spec := range lattice {
					at := "cuboid " + spec.Key()
					lt, lok := lazy.EnumerateCellValues(spec)
					et, eok := eager.EnumerateCellValues(spec)
					same(at+" EnumerateCellValues", tupleKeys(lt), tupleKeys(et))
					same(at+" EnumerateCellValues found", lok, eok)
					for _, cell := range full.Cuboid(spec).SortedCells() {
						at := at + " cell " + cellKey(cell.Values)
						lc, lm := lazy.Lookup(spec, cell.Values)
						ec, em := eager.Lookup(spec, cell.Values)
						same(at+" Lookup", cellSig(lc), cellSig(ec))
						same(at+" Lookup materialized", lm, em)
						ln, lok := lazy.Census(spec, cell.Values)
						en, eok := eager.Census(spec, cell.Values)
						same(at+" Census", []any{ln, lok}, []any{en, eok})
						for _, ds := range eager.MaterializedSpecs() {
							same(at+" FoldSources of "+ds.Key(),
								cellSigs(lazy.FoldSources(ds, spec, cell.Values)),
								cellSigs(eager.FoldSources(ds, spec, cell.Values)))
						}
						lp, ep := lazy.Partial(spec, cell.Values), eager.Partial(spec, cell.Values)
						same(at+" Partial.Self", cellSig(lp.Self), cellSig(ep.Self))
						same(at+" Partial census", []any{lp.Materialized, lp.Census}, []any{ep.Materialized, ep.Census})
						same(at+" Partial.Lattice", specKeys(lp.Lattice), specKeys(ep.Lattice))
						same(at+" Partial fold sets", len(lp.Folds), len(ep.Folds))
						for i := range ep.Folds {
							same(at+" Partial fold spec", lp.Folds[i].Spec.Key(), ep.Folds[i].Spec.Key())
							same(at+" Partial fold cells", cellSigs(lp.Folds[i].Cells), cellSigs(ep.Folds[i].Cells))
						}
						queries := []core.Query{
							{Spec: spec, Values: cell.Values},
							{Spec: spec, Values: cell.Values, NoCompute: true},
						}
						for d := range spec.Item {
							queries = append(queries,
								core.Query{Op: core.OpRollUp, Spec: spec, Values: cell.Values, Dim: d},
								core.Query{Op: core.OpDrillDown, Spec: spec, Values: cell.Values, Dim: d},
								core.Query{Op: core.OpSlice, Spec: spec, Select: []core.Selector{{Dim: d, Value: cell.Values[d]}}})
						}
						for _, q := range queries {
							la, lerr := lazy.Answer(ctx, q)
							ea, eerr := eager.Answer(ctx, q)
							same(fmt.Sprintf("%s Answer %s dim %d nocompute=%v", at, q.Op, q.Dim, q.NoCompute),
								answerSig(la, lerr), answerSig(ea, eerr))
							if lerr == nil && q.Op == core.OpCell && la.Cells[0].Provenance == core.ComputedFromDescendants {
								computed++
							}
						}
					}
				}
				if err := lazy.LazyErr(); err != nil {
					t.Fatalf("%s seed %d budget %d: healthy snapshot recorded a lazy error: %v", name, seed, budget, err)
				}
			}
		}
	}
	if computed == 0 {
		t.Fatal("no random partial cube produced a computed cell; the property test never exercised a lazy fold")
	}
}

// TestLazyDrillDownLeavesDirectoryIntact is the regression test for an
// aliasing bug: Answer's drill-down and slice branches used to filter the
// slice EnumerateCellValues handed them in place, which, once that slice
// belongs to a cached section directory, rewrites the directory under every
// later reader. After a round of drill-downs and slices over every cell,
// every cell of every section must still enumerate and read as the eager
// cube's.
func TestLazyDrillDownLeavesDirectoryIntact(t *testing.T) {
	eager, lazy := lazyFixture(t, core.LazyOptions{CacheBytes: -1})
	ctx := context.Background()
	for _, cb := range eager.Cuboids {
		for _, cell := range cb.SortedCells() {
			for d := range cb.Spec.Item {
				// Drill-downs from a finest level and slices that match
				// nothing are errors or empty answers; only the reads matter.
				_, _ = lazy.Answer(ctx, core.Query{Op: core.OpDrillDown, Spec: cb.Spec, Values: cell.Values, Dim: d, MaxCells: 1})
				_, _ = lazy.Answer(ctx, core.Query{Op: core.OpSlice, Spec: cb.Spec,
					Select: []core.Selector{{Dim: d, Value: cell.Values[d]}}, MaxCells: 1})
			}
		}
	}
	for _, cb := range eager.Cuboids {
		cells := cb.SortedCells()
		tuples, ok := lazy.EnumerateCellValues(cb.Spec)
		if !ok || len(tuples) != len(cells) {
			t.Fatalf("cuboid %s enumerates %d cells after the drill-downs, want %d", cb.Spec.Key(), len(tuples), len(cells))
		}
		for i, cell := range cells {
			if cellKey(tuples[i]) != cellKey(cell.Values) {
				t.Fatalf("cuboid %s enumerates %v at %d, want %v", cb.Spec.Key(), tuples[i], i, cell.Values)
			}
			got, ok := lazy.Cell(cb.Spec, cell.Values)
			if !ok || core.CellDigest(got) != core.CellDigest(cell) {
				t.Fatalf("cuboid %s cell %v reads differently after the drill-downs", cb.Spec.Key(), cell.Values)
			}
		}
	}
}

// lookupSink keeps the benchmarked lookups from being optimized away.
var lookupSink *core.Cell

// BenchmarkLazyLookupCold times one point read on the lazily opened fixture
// cube, cells drawn uniformly. At the 1-byte budget nothing is ever
// resident, so every read walks its section's directory and decodes its one
// cell — the cold cost; unbounded, the same draws find everything resident
// after the first touch — the floor the cold cost sits above.
func BenchmarkLazyLookupCold(b *testing.B) {
	_, eager := oracle.Table1(b, oracle.Cuts, oracle.Mined(0.5))
	path := oracle.File(b, oracle.Save(b, eager))
	type ref struct {
		spec   core.CuboidSpec
		values []hierarchy.NodeID
	}
	var refs []ref
	for _, spec := range eager.MaterializedSpecs() {
		for _, cell := range eager.Cuboid(spec).SortedCells() {
			refs = append(refs, ref{spec, cell.Values})
		}
	}
	for _, budget := range []struct {
		name  string
		bytes int64
	}{{"budget=1B", 1}, {"budget=unbounded", -1}} {
		b.Run(budget.name, func(b *testing.B) {
			lazy, err := core.LoadCubeLazy(path, core.LazyOptions{CacheBytes: budget.bytes})
			if err != nil {
				b.Fatal(err)
			}
			defer lazy.Close()
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := refs[rng.Intn(len(refs))]
				cell, ok := lazy.Cell(r.spec, r.values)
				if !ok {
					b.Fatalf("cell %v of %s absent", r.values, r.spec.Key())
				}
				lookupSink = cell
			}
		})
	}
}

// foldSink keeps the benchmarked fold selections from being optimized away.
var foldSink []*core.Cell

// BenchmarkFoldSources times the selection of the apex cell's fold sources
// from the largest path-level-0 cuboid of the build-shaped cube, which
// every one of its cells generalizes to: in memory, and from a lazily
// opened snapshot with everything resident. The cells metric is how many
// it scans; allocations must not grow with it.
func BenchmarkFoldSources(b *testing.B) {
	eager := buildShaped(b)
	apex := core.CuboidSpec{Item: make(core.ItemLevel, len(eager.Schema.Dims))}
	values := make([]hierarchy.NodeID, len(apex.Item))
	for d := range values {
		values[d] = hierarchy.Root
	}
	var ds core.CuboidSpec
	widest := -1
	for _, spec := range eager.MaterializedSpecs() {
		if n := len(eager.Cuboid(spec).Cells); spec.PathLevel == 0 && n > widest {
			ds, widest = spec, n
		}
	}
	lazy := oracle.OpenLazy(b, oracle.File(b, oracle.Save(b, eager)), core.LazyOptions{CacheBytes: -1})
	for name, cube := range map[string]*core.Cube{"eager": eager, "lazy": lazy} {
		b.Run(name, func(b *testing.B) {
			if got := len(cube.FoldSources(ds, apex, values)); got != widest {
				b.Fatalf("%d fold sources of %s, want all %d cells", got, ds.Key(), widest)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				foldSink = cube.FoldSources(ds, apex, values)
			}
			b.ReportMetric(float64(widest), "cells")
		})
	}
}
