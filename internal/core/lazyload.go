package core

// Lazy (mmap-backed) snapshot serving: LoadCubeLazy maps a v2 snapshot
// read-only, eagerly validates the framing — magic, header, section index,
// every section's CRC-32C — and decodes the preamble and ledger once, but
// leaves every cuboid section as a byte range into the mapping. Cells are
// decoded per section on first touch through a byte-budgeted LRU with
// single-flight dedup, so a server's cold open costs milliseconds and its
// resident decoded state stays bounded regardless of cube size. Summary and
// exception queries answer directly from flat scans over the mapped arrays
// without materializing a Cell at all (the FlowCube partial-materialization
// idea applied to storage; see DESIGN.md §8).
//
// Decoded structures never alias the mapping — strings and columns are
// fresh heap allocations — so eviction only drops cache references and
// already-returned cuboids stay valid; Close (or the finalizer) is the only
// operation that invalidates the mapping, and it must not race in-flight
// queries, the same contract snapshot swapping already has.
//
// This file is on the immutcube allowlist: the cube assembled here is
// freshly constructed, and the lazy backend's internal caches are guarded
// by their own synchronization, invisible to the Cube's immutable contract.

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"flowcube/internal/flowgraph"
	"flowcube/internal/hierarchy"
	"flowcube/internal/lru"
	"flowcube/internal/pathdb"
)

// DefaultLazyCacheBytes is the decoded-cuboid LRU budget when
// LazyOptions.CacheBytes is zero (~64 MB of estimated decoded heap).
const DefaultLazyCacheBytes = 64 << 20

// errLazyClosed is returned by touches of a lazily loaded cube after Close.
var errLazyClosed = errors.New("core: lazy cube is closed")

// LazyOptions parameterizes LoadCubeLazy.
type LazyOptions struct {
	// CacheBytes budgets the decoded-cuboid LRU, measured in estimated
	// decoded heap bytes (see flatFootprint) rather than encoded payload
	// bytes. 0 means DefaultLazyCacheBytes; negative disables eviction.
	// One cuboid section larger than the whole budget still caches (the
	// LRU never evicts its only entry), so the resident bound is
	// max(CacheBytes, largest single section).
	CacheBytes int64
}

// snapData is the byte source behind a lazily loaded snapshot: an mmap on
// linux (zero-copy views), an io.ReaderAt fallback elsewhere or under the
// nommap build tag (per-view pread into a fresh buffer).
type snapData interface {
	// view returns the byte range [off, off+n). Mapped implementations
	// return a subslice of the mapping, which callers must not retain past
	// close; the fallback returns a fresh copy.
	view(off, n int64) ([]byte, error)
	size() int64
	close() error
}

// lazySection is one cuboid section of the snapshot: its decoded header
// (spec, cell count) plus the payload byte range. The flat-scan result is
// cached after the first summary/save scan.
type lazySection struct {
	key      string
	spec     CuboidSpec
	numCells int
	off, n   int64
	scan     atomic.Pointer[sectionScan]
}

// sectionScan is the result of one flat walk over a section's cells:
// the redundant-cell census (for CuboidSummaries) and whether the cells
// are stored in sorted key order (raw byte copy on Save is only valid
// then — eager Save re-sorts, and lazy Save must produce identical bytes).
type sectionScan struct {
	redundant int
	sorted    bool
}

// lazyBackend holds everything behind a lazily loaded cube: the mapped
// data, the section index, the decoded-cuboid LRU, and the sticky first
// decode error.
type lazyBackend struct {
	data   snapData
	loc    *hierarchy.Hierarchy
	levels []pathdb.PathLevel
	secs   map[string]*lazySection
	order  []*lazySection // sorted by key: deterministic scans and saves

	cache *lru.Cache[*Cuboid]

	// decodedSections/decodedBytes count cumulative section decodes (cache
	// misses that ran the decoder) and the encoded payload bytes they read.
	decodedSections atomic.Int64
	decodedBytes    atomic.Int64

	closed    atomic.Bool
	closeOnce sync.Once

	// firstErr is the sticky first decode/IO error surfaced by a touch.
	// Query paths that cannot return an error (Cell, CuboidSummaries, ...)
	// record it here and report absence; (*Cube).LazyErr exposes it.
	errMu    sync.Mutex
	firstErr error
}

// LazyStats is a point-in-time snapshot of a lazy cube's serving state,
// for /metrics-style reporting.
type LazyStats struct {
	// Mapped is true when the snapshot is served from an mmap (false under
	// the pread fallback).
	Mapped bool
	// MappedBytes is the snapshot file size backing the cube.
	MappedBytes int64
	// BudgetBytes is the decoded-cuboid LRU budget (<0: unbounded).
	BudgetBytes int64
	// Sections is the number of cuboid sections in the snapshot.
	Sections int
	// DecodedSections and DecodedBytes count cumulative section decodes
	// and the encoded payload bytes they consumed.
	DecodedSections int64
	DecodedBytes    int64
	// CachedSections and CachedBytes describe the LRU's resident set;
	// CachedBytes is the estimated decoded heap footprint.
	CachedSections int
	CachedBytes    int64
	CacheHits      int64
	CacheMisses    int64
	Evictions      int64
}

// LoadCubeLazy opens a v2 snapshot for lazy serving: the file is mapped
// read-only (pread fallback under the nommap tag or off linux), every
// section's framing and CRC-32C is validated eagerly, the preamble and
// ledger are decoded once, and cuboid sections decode on first touch
// through a CacheBytes-budgeted LRU with single-flight dedup.
//
// The returned cube answers the full read surface — Cell, Answer,
// NumCells, CuboidSummaries, TopExceptions, Validate, Save, Clone —
// byte-identically to an eager Load of the same file. Mutating operations
// (MarkRedundancy, Compress, ApplyDelta) need an eager copy: use
// Materialize. Close releases the mapping; it must not race in-flight
// queries. Decode errors on first touch are *CorruptSnapshotError values:
// paths that return errors propagate them, and the error-less query paths
// record the first one for (*Cube).LazyErr and report absence.
func LoadCubeLazy(path string, opts LazyOptions) (*Cube, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close() // the stat error is the one worth reporting
		return nil, err
	}
	var head [len(magicV2)]byte
	n, err := f.ReadAt(head[:], 0)
	if err == nil || err == io.EOF {
		err = checkMagic(head[:n])
	}
	if err != nil {
		_ = f.Close() // the read or format error is the one worth reporting
		return nil, err
	}
	data, err := openSnapshotData(f, st.Size()) // takes ownership of f
	if err != nil {
		return nil, err
	}
	cube, err := openLazy(data, opts)
	if err != nil {
		_ = data.close() // the open error is the one worth reporting
		return nil, err
	}
	return cube, nil
}

// snapFrame locates one framed section inside the data: its kind, payload
// byte range, and the offset of the next frame.
type snapFrame struct {
	kind       byte
	payloadOff int64
	payloadLen int64
	next       int64
}

// readFrame parses and CRC-checks the section frame at off. The returned
// payload is a view of the data (zero-copy when mapped).
func readFrame(data snapData, off int64) (snapFrame, []byte, error) {
	frame := &byteReader{section: "frame"}
	size := data.size()
	if off >= size {
		return snapFrame{}, nil, frame.corrupt("missing section kind: EOF at offset %d", off)
	}
	hn := min(int64(1+binary.MaxVarintLen64), size-off)
	hdr, err := data.view(off, hn)
	if err != nil {
		return snapFrame{}, nil, err
	}
	n, w := binary.Uvarint(hdr[1:])
	if w <= 0 {
		return snapFrame{}, nil, frame.corrupt("bad section length at offset %d", off)
	}
	if n > maxSectionBytes {
		return snapFrame{}, nil, frame.corrupt("section length %d exceeds the %d byte cap", n, maxSectionBytes)
	}
	fr := snapFrame{kind: hdr[0], payloadOff: off + 1 + int64(w), payloadLen: int64(n)}
	fr.next = fr.payloadOff + fr.payloadLen + 4
	if fr.next > size {
		return snapFrame{}, nil, frame.corrupt("truncated section payload at offset %d", off)
	}
	payload, err := data.view(fr.payloadOff, fr.payloadLen)
	if err != nil {
		return snapFrame{}, nil, err
	}
	crcBytes, err := data.view(fr.payloadOff+fr.payloadLen, 4)
	if err != nil {
		return snapFrame{}, nil, err
	}
	if got, want := crc32.Checksum(payload, snapshotCRCTable), binary.LittleEndian.Uint32(crcBytes); got != want {
		return snapFrame{}, nil, frame.corrupt("section checksum mismatch (got %08x, want %08x)", got, want)
	}
	return fr, payload, nil
}

// openLazy walks the snapshot's sections, validating every frame and CRC,
// decoding the preamble and ledger, and indexing cuboid sections by key
// without decoding any cells.
func openLazy(data snapData, opts LazyOptions) (*Cube, error) {
	off := int64(len(magicV2))

	// Preamble: the same three-section sequence (and the same payload
	// decoders) the streaming loader uses; only the framing walk differs.
	fr, payload, err := readFrame(data, off)
	if err != nil {
		return nil, err
	}
	if fr.kind != secHeader {
		return nil, (&byteReader{section: "header"}).corrupt("first section has kind %d, want header", fr.kind)
	}
	h, err := decodeHeaderV2(payload)
	if err != nil {
		return nil, err
	}
	fr, payload, err = readFrame(data, fr.next)
	if err != nil {
		return nil, err
	}
	if fr.kind != secHierarchies {
		return nil, (&byteReader{section: "hierarchies"}).corrupt("second section has kind %d, want hierarchies", fr.kind)
	}
	schema, err := decodeHierarchiesV2(payload, h.numDims)
	if err != nil {
		return nil, err
	}
	fr, payload, err = readFrame(data, fr.next)
	if err != nil {
		return nil, err
	}
	if fr.kind != secPlan {
		return nil, (&byteReader{section: "plan"}).corrupt("third section has kind %d, want plan", fr.kind)
	}
	plan, levels, err := decodePlanV2(payload, schema, h)
	if err != nil {
		return nil, err
	}
	p, err := assemblePreambleV2(h, schema, plan, levels)
	if err != nil {
		return nil, err
	}

	b := &lazyBackend{
		data:   data,
		loc:    p.location,
		levels: p.levels,
		secs:   make(map[string]*lazySection, p.numCuboids),
	}
	budget := opts.CacheBytes
	if budget == 0 {
		budget = DefaultLazyCacheBytes
	}
	b.cache = lru.New[*Cuboid](budget)

	var ledger *Ledger
	off = fr.next
	for {
		fr, payload, err = readFrame(data, off)
		if err != nil {
			return nil, err
		}
		off = fr.next
		if fr.kind == secEnd {
			break
		}
		switch fr.kind {
		case secLedger:
			if ledger != nil {
				return nil, (&byteReader{section: "frame"}).corrupt("duplicate ledger section")
			}
			if ledger, err = decodeLedgerV2(payload, p.numDims); err != nil {
				return nil, err
			}
		case secCuboid:
			if ledger != nil {
				return nil, (&byteReader{section: "frame"}).corrupt("cuboid section after the ledger section")
			}
			if uint64(len(b.order)) >= p.numCuboids {
				return nil, (&byteReader{section: "frame"}).corrupt(
					"more cuboid sections than the header's %d", p.numCuboids)
			}
			r := &byteReader{section: "cuboid", buf: payload}
			spec, numCells, err := decodeCuboidHeaderV2(r, p.levels)
			if err != nil {
				return nil, err
			}
			if err := validateSpec(spec, p.syms, p.schema); err != nil {
				return nil, err
			}
			key := spec.Key()
			if _, dup := b.secs[key]; dup {
				return nil, (&byteReader{section: "frame"}).corrupt("duplicate cuboid %s", key)
			}
			sec := &lazySection{key: key, spec: spec, numCells: numCells, off: fr.payloadOff, n: fr.payloadLen}
			b.secs[key] = sec
			b.order = append(b.order, sec)
		default:
			return nil, (&byteReader{section: "frame"}).corrupt("unknown section kind %d", fr.kind)
		}
	}
	if uint64(len(b.order)) != p.numCuboids {
		return nil, (&byteReader{section: "frame"}).corrupt(
			"%d cuboid sections, header promised %d", len(b.order), p.numCuboids)
	}
	sort.Slice(b.order, func(i, j int) bool { return b.order[i].key < b.order[j].key })

	cube := p.cube()
	cube.lazy = b
	if ledger != nil {
		cube.ledger = ledger
		cube.Config.DeltaLedger = true
	}
	// Backstop for dropped cubes: release the mapping (and the fallback's
	// fd) when the backend becomes unreachable without an explicit Close —
	// a server that reloads and lets old snapshots age out relies on this.
	runtime.SetFinalizer(b, (*lazyBackend).finalize)
	return cube, nil
}

func (b *lazyBackend) finalize() { _ = b.data.close() }

func (b *lazyBackend) close() error {
	var err error
	b.closeOnce.Do(func() {
		b.closed.Store(true)
		runtime.SetFinalizer(b, nil)
		err = b.data.close()
	})
	return err
}

// view returns a section's payload bytes, refusing after close.
func (b *lazyBackend) view(sec *lazySection) ([]byte, error) {
	if b.closed.Load() {
		return nil, errLazyClosed
	}
	return b.data.view(sec.off, sec.n)
}

// noteErr records the first decode/IO error a touch produced; LazyErr
// exposes it. Later errors are dropped — the first corruption is the one
// that explains everything after it.
func (b *lazyBackend) noteErr(err error) {
	if err == nil {
		return
	}
	b.errMu.Lock()
	if b.firstErr == nil {
		b.firstErr = err
	}
	b.errMu.Unlock()
}

func (b *lazyBackend) lazyErr() error {
	b.errMu.Lock()
	defer b.errMu.Unlock()
	return b.firstErr
}

// cuboid returns a section's decoded cuboid through the section cache:
// decoded on first touch, at its estimated decoded heap cost. Decode errors
// are not cached — a later touch retries — and the first one is recorded
// sticky for LazyErr.
func (b *lazyBackend) cuboid(sec *lazySection) (*Cuboid, error) {
	cb, _, err := b.cache.Do(sec.key, func() (*Cuboid, int64, error) { return b.decodeSection(sec) })
	if err != nil {
		b.noteErr(err)
	}
	return cb, err
}

// decodeSection runs the full cuboid decoder over one section payload.
func (b *lazyBackend) decodeSection(sec *lazySection) (*Cuboid, int64, error) {
	payload, err := b.view(sec)
	if err != nil {
		return nil, 0, err
	}
	cb, cost, err := decodeCuboidV2(payload, b.loc, b.levels)
	if err != nil {
		return nil, 0, err
	}
	b.decodedSections.Add(1)
	b.decodedBytes.Add(sec.n)
	return cb, cost, nil
}

// cuboidByKey is the error-less lookup behind (*Cube).Cuboid and Cell:
// unknown keys and decode failures both report absence (failures are
// recorded for LazyErr).
func (b *lazyBackend) cuboidByKey(key string) *Cuboid {
	sec := b.secs[key]
	if sec == nil {
		return nil
	}
	cb, err := b.cuboid(sec)
	if err != nil {
		return nil
	}
	return cb
}

// numCells sums the per-section cell counts recorded in the section
// headers — no cell decode at all.
func (b *lazyBackend) numCells() int {
	n := 0
	for _, sec := range b.order {
		n += sec.numCells
	}
	return n
}

// scanSection walks a section's cells once — prefixes decoded, flat graphs
// skipped — collecting the redundant census and whether cell keys are
// stored sorted. The result is cached on the section.
func (b *lazyBackend) scanSection(sec *lazySection) (*sectionScan, error) {
	if s := sec.scan.Load(); s != nil {
		return s, nil
	}
	payload, err := b.view(sec)
	if err != nil {
		return nil, err
	}
	r := &byteReader{section: "cuboid", buf: payload}
	if _, _, err := decodeCuboidHeaderV2(r, b.levels); err != nil {
		return nil, err
	}
	s := &sectionScan{sorted: true}
	prev := ""
	for ci := 0; ci < sec.numCells; ci++ {
		values, _, flags, _, err := decodeCellPrefixV2(r)
		if err != nil {
			return nil, err
		}
		key := cellKey(values)
		if ci > 0 && key <= prev {
			s.sorted = false
		}
		prev = key
		if flags&1 != 0 {
			s.redundant++
		}
		if flags&2 != 0 {
			if err := skipFlatGraph(r); err != nil {
				return nil, err
			}
		}
	}
	if r.rem() != 0 {
		return nil, r.corrupt("%d trailing bytes", r.rem())
	}
	sec.scan.Store(s)
	return s, nil
}

// summaries is the flat-scan CuboidSummaries: per-section cell counts from
// the headers, redundant censuses from cached scans. Any scan failure
// reports nil after recording the error for LazyErr.
func (b *lazyBackend) summaries() ([]CuboidSummary, error) {
	out := make([]CuboidSummary, 0, len(b.order))
	for _, sec := range b.order {
		s, err := b.scanSection(sec)
		if err != nil {
			return nil, err
		}
		out = append(out, CuboidSummary{
			Key:       sec.key,
			Item:      sec.spec.Item,
			PathLevel: sec.spec.PathLevel,
			Cells:     sec.numCells,
			Redundant: s.redundant,
		})
	}
	return out, nil
}

// topExceptions collects every exception by flat-scanning the mapped
// sections in sorted key order: cell prefixes and flat graph columns are
// decoded, but no pointer tree is built and nothing enters the LRU —
// the Node chains come from flowgraph.FlatExceptions. Cells are emitted
// in sorted key order, matching the eager walk exactly.
func (b *lazyBackend) topExceptions() ([]RankedException, error) {
	var out []RankedException
	for _, sec := range b.order {
		payload, err := b.view(sec)
		if err != nil {
			return nil, err
		}
		r := &byteReader{section: "cuboid", buf: payload}
		if _, _, err := decodeCuboidHeaderV2(r, b.levels); err != nil {
			return nil, err
		}
		type cellExc struct {
			key    string
			values []hierarchy.NodeID
			xs     []flowgraph.Exception
		}
		var cells []cellExc
		for ci := 0; ci < sec.numCells; ci++ {
			values, _, flags, _, err := decodeCellPrefixV2(r)
			if err != nil {
				return nil, err
			}
			if flags&2 == 0 {
				continue
			}
			flat, err := decodeFlatGraph(r)
			if err != nil {
				return nil, err
			}
			if len(flat.ExcNode) == 0 {
				continue
			}
			xs, err := flowgraph.FlatExceptions(flat)
			if err != nil {
				return nil, r.corrupt("cell %d: %v", ci, err)
			}
			cells = append(cells, cellExc{key: cellKey(values), values: values, xs: xs})
		}
		if r.rem() != 0 {
			return nil, r.corrupt("%d trailing bytes", r.rem())
		}
		sort.SliceStable(cells, func(i, j int) bool { return cells[i].key < cells[j].key })
		for _, ce := range cells {
			for _, x := range ce.xs {
				out = append(out, RankedException{Spec: sec.spec, Values: ce.values, Exception: x})
			}
		}
	}
	return out, nil
}

// validate runs the eager per-cuboid validation over every section,
// decoding each through the cache (warming and evicting as it goes).
func (b *lazyBackend) validate(c *Cube) error {
	for _, sec := range b.order {
		cb, err := b.cuboid(sec)
		if err != nil {
			return err
		}
		if err := c.validateCuboid(cb); err != nil {
			return err
		}
	}
	return nil
}

// sortedAll decodes every section through the cache in key order — the
// generic lazy stand-in for sortedCuboids. Sections that fail to decode
// are skipped after recording the error; callers that need failures as
// errors (Validate, Save, Materialize) have their own paths.
func (b *lazyBackend) sortedAll() []*Cuboid {
	out := make([]*Cuboid, 0, len(b.order))
	for _, sec := range b.order {
		cb, err := b.cuboid(sec)
		if err != nil {
			continue
		}
		out = append(out, cb)
	}
	return out
}

// materialize decodes the whole snapshot into a fresh eager cube the
// caller exclusively owns: sections decode in parallel, bypassing the
// shared cache so nothing is aliased with other readers of the lazy cube.
// The result is the lazy cube's next generation — it owns the cells it just
// decoded and shares the ledger copy-on-write.
func (b *lazyBackend) materialize(c *Cube) (*Cube, error) {
	if b.closed.Load() {
		return nil, errLazyClosed
	}
	payloads := make([][]byte, len(b.order))
	for i, sec := range b.order {
		p, err := b.view(sec)
		if err != nil {
			return nil, err
		}
		payloads[i] = p
	}
	cuboids, err := decodeCuboidsV2(payloads, b.loc, b.levels, 0)
	if err != nil {
		return nil, err
	}
	out := &Cube{
		Schema:   c.Schema,
		Config:   c.Config,
		Symbols:  c.Symbols.Clone(),
		Mining:   c.Mining,
		Cuboids:  make(map[string]*Cuboid, len(cuboids)),
		minCount: c.minCount,
		appended: c.appended,
		gen:      c.gen + 1,
		ledger:   c.ledger.fork(c.gen + 1),
	}
	for _, cb := range cuboids {
		cb.owner = out.gen
		for _, cell := range cb.Cells {
			cell.owner = out.gen
		}
		out.Cuboids[cb.Spec.Key()] = cb
	}
	return out, nil
}

// save writes the lazy cube as v2 snapshot bytes identical to an eager
// load-then-Save of the same file. Metadata sections are re-encoded from
// the decoded preamble state (decode→encode is a fixed point); cuboid
// sections whose cells are stored sorted — every file our Save wrote — are
// raw payload copies straight from the mapping, and unsorted ones (foreign
// writers) fall back to decode + re-encode, which re-sorts exactly as the
// eager path would.
func (b *lazyBackend) save(c *Cube, w io.Writer) error {
	header, hiers, plan := encodeMetaSectionsV2(c, len(b.order))
	if _, err := io.WriteString(w, magicV2); err != nil {
		return err
	}
	if err := writeSection(w, secHeader, header); err != nil {
		return err
	}
	if err := writeSection(w, secHierarchies, hiers); err != nil {
		return err
	}
	if err := writeSection(w, secPlan, plan); err != nil {
		return err
	}
	for _, sec := range b.order {
		payload, err := b.view(sec)
		if err != nil {
			return err
		}
		s, scanErr := b.scanSection(sec)
		if scanErr == nil && s.sorted {
			if err := writeSection(w, secCuboid, payload); err != nil {
				return err
			}
			continue
		}
		// Unsorted cells, or a scan that failed structurally: the full
		// decoder either re-sorts (via the cell map + SortedCells) or
		// reports the real corruption.
		cb, _, err := decodeCuboidV2(payload, b.loc, b.levels)
		if err != nil {
			b.noteErr(err)
			return err
		}
		if err := writeSection(w, secCuboid, encodeCuboidV2(cb)); err != nil {
			return err
		}
	}
	if c.ledger != nil {
		if err := writeSection(w, secLedger, encodeLedgerV2(c.ledger)); err != nil {
			return err
		}
	}
	return writeSection(w, secEnd, nil)
}

// stats snapshots the backend's gauges.
func (b *lazyBackend) stats() LazyStats {
	c := b.cache.Stats()
	return LazyStats{
		Mapped:          snapMapped,
		MappedBytes:     b.data.size(),
		BudgetBytes:     b.cache.Budget(),
		Sections:        len(b.order),
		DecodedSections: b.decodedSections.Load(),
		DecodedBytes:    b.decodedBytes.Load(),
		CachedSections:  c.Entries,
		CachedBytes:     c.Cost,
		CacheHits:       c.Hits,
		CacheMisses:     c.Misses,
		Evictions:       c.Evictions,
	}
}

// LazyStats reports the lazy serving state of the cube; ok is false for
// eagerly loaded (or built) cubes.
func (c *Cube) LazyStats() (stats LazyStats, ok bool) {
	if c.lazy == nil {
		return LazyStats{}, false
	}
	return c.lazy.stats(), true
}

// LazyErr reports the first decode or IO error a lazy touch has produced
// (always a *CorruptSnapshotError for decode failures), or nil. Error-less
// query paths — Cell, Lookup, CuboidSummaries, TopExceptions — report
// absence when a section fails to decode; serving layers check LazyErr to
// distinguish "not materialized" from "snapshot corrupt". Always nil for
// eager cubes.
func (c *Cube) LazyErr() error {
	if c.lazy == nil {
		return nil
	}
	return c.lazy.lazyErr()
}

// Close releases a lazily loaded cube's mapping (and, under the fallback,
// its file descriptor). It is idempotent, must not race in-flight queries
// (the same contract snapshot swapping has), and is a no-op for eager
// cubes; dropped lazy cubes are also released by a finalizer, so Close is
// an optimization for deterministic release, not a correctness requirement.
func (c *Cube) Close() error {
	if c.lazy == nil {
		return nil
	}
	return c.lazy.close()
}

// Materialize returns an eager cube the caller exclusively owns and may
// mutate without disturbing the receiver. For a lazy cube it decodes every
// section fresh (in parallel, bypassing the shared LRU) and reports a
// corrupt section as an error; for an eager cube it is Fork. Mutating
// pipelines over served snapshots — incr.ApplyDelta, MarkRedundancy,
// Compress, FilterCells — run on the result.
func (c *Cube) Materialize() (*Cube, error) {
	if c.lazy == nil {
		return c.Fork(), nil
	}
	return c.lazy.materialize(c)
}

// encodeMetaSectionsV2 builds the header, hierarchies and plan section
// payloads from the cube's decoded state — shared by the eager SaveWith
// and the lazy save so the metadata encoding exists once.
func encodeMetaSectionsV2(c *Cube, numCuboids int) (header, hiers, plan []byte) {
	header = binary.AppendUvarint(header, formatVersionV2)
	header = binary.AppendVarint(header, c.minCount)
	header = binary.LittleEndian.AppendUint64(header, math.Float64bits(c.Config.Epsilon))
	header = binary.LittleEndian.AppendUint64(header, math.Float64bits(c.Config.Tau))
	header = binary.AppendUvarint(header, uint64(len(c.Schema.Dims)))
	header = binary.AppendUvarint(header, uint64(len(c.Symbols.PathLevels())))
	header = binary.AppendUvarint(header, uint64(numCuboids))

	hiers = appendHierarchyV2(hiers, c.Schema.Location)
	for _, h := range c.Schema.Dims {
		hiers = appendHierarchyV2(hiers, h)
	}

	dimLevels := c.Symbols.DimLevels()
	plan = binary.AppendUvarint(plan, uint64(len(dimLevels)))
	for _, levels := range dimLevels {
		plan = binary.AppendUvarint(plan, uint64(len(levels)))
		for _, l := range levels {
			plan = binary.AppendUvarint(plan, uint64(l))
		}
	}
	pathLevels := c.Symbols.PathLevels()
	plan = binary.AppendUvarint(plan, uint64(len(pathLevels)))
	for _, pl := range pathLevels {
		nodes := pl.Cut.Nodes()
		plan = binary.AppendUvarint(plan, uint64(len(nodes)))
		for _, nd := range nodes {
			plan = binary.AppendUvarint(plan, uint64(uint32(nd)))
		}
		if pl.Time.Any {
			plan = append(plan, 1)
		} else {
			plan = append(plan, 0)
		}
		plan = binary.AppendVarint(plan, pl.Time.Grain)
	}
	return header, hiers, plan
}
