package core

// Lazy (mmap-backed) snapshot serving: LoadCubeLazy maps a v2 snapshot
// read-only, eagerly validates the framing — magic, header, section index,
// every section's CRC-32C — and decodes the preamble and ledger once, but
// leaves every cuboid section as a byte range into the mapping. The unit of
// decoding and caching is the cell: one flat walk over a section (prefixes
// decoded, flowgraphs skipped) yields its directory — sorted cell keys,
// value tuples, counts and byte offsets — and a point read binary-searches
// the directory and decodes only the cell it names. Directories and decoded
// cells share one byte-budgeted LRU with single-flight dedup, so a server's
// cold open costs milliseconds, a cold lookup costs one cell, and resident
// decoded state stays bounded regardless of cube size. Summaries, censuses,
// fold-source selection and cell enumeration answer from directories, and
// exception queries from flat scans over the mapped arrays, without
// materializing a Cell at all (the FlowCube partial-materialization idea
// applied to storage; see DESIGN.md §8).
//
// Decoded structures never alias the mapping — strings and columns are
// fresh heap allocations — so eviction only drops cache references and
// already-returned cells stay valid; Close (or the finalizer) is the only
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

// DefaultLazyCacheBytes is the lazy cache budget when
// LazyOptions.CacheBytes is zero (~64 MB of estimated decoded heap).
const DefaultLazyCacheBytes = 64 << 20

// errLazyClosed is returned by touches of a lazily loaded cube after Close.
var errLazyClosed = errors.New("core: lazy cube is closed")

// LazyOptions parameterizes LoadCubeLazy.
type LazyOptions struct {
	// CacheBytes budgets the LRU of section directories and decoded cells,
	// measured in estimated decoded heap bytes (see flatFootprint) rather
	// than encoded payload bytes. 0 means DefaultLazyCacheBytes; negative
	// disables eviction. One entry larger than the whole budget still
	// caches (the LRU never evicts its only entry), so the resident bound
	// is max(CacheBytes, largest single directory or cell).
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
// (spec, cell count) plus the payload byte range and where in it the cells
// start.
type lazySection struct {
	key      string
	spec     CuboidSpec
	numCells int
	off, n   int64
	cellsOff int
}

// sectionDir is the result of one flat walk over a section's cells: one
// entry per cell in ascending key order — the order the section stores them
// in — and the redundant-cell census (for CuboidSummaries). It is immutable
// once built; callers share it.
type sectionDir struct {
	entries   []dirEntry
	redundant int
}

// dirEntry locates one cell: its key and value tuple, its path count (so a
// census never decodes a graph), and its byte range within the section
// payload.
type dirEntry struct {
	key      string
	values   []hierarchy.NodeID
	count    int64
	off, end int32 // maxSectionBytes fits int32
}

// Directory-footprint model, the cache cost of a sectionDir: the entry
// struct plus the key and value allocations' headers, then their bytes.
const (
	dirBaseFootprint  = 64
	dirEntryFootprint = 88
)

// find binary-searches the directory for a cell key.
func (d *sectionDir) find(key string) (*dirEntry, bool) {
	i := sort.Search(len(d.entries), func(i int) bool { return d.entries[i].key >= key })
	if i == len(d.entries) || d.entries[i].key != key {
		return nil, false
	}
	return &d.entries[i], true
}

// lazyEntry is what the backend's one cache holds: a section's directory
// (under the section key) or one decoded cell (section key + "/" + cell key).
type lazyEntry struct {
	dir  *sectionDir
	cell *Cell
}

// lazyBackend holds everything behind a lazily loaded cube: the mapped
// data, the section index, the directory-and-cell LRU, and the sticky first
// decode error.
type lazyBackend struct {
	data   snapData
	loc    *hierarchy.Hierarchy
	levels []pathdb.PathLevel
	secs   map[string]*lazySection
	order  []*lazySection // sorted by key: deterministic scans and saves

	cache *lru.Cache[lazyEntry]

	// decodedCells/decodedBytes count cumulative cell decodes (cache misses
	// that ran the cell decoder) and the encoded bytes they read. Directory
	// walks skip the graphs and count toward neither.
	decodedCells atomic.Int64
	decodedBytes atomic.Int64

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
	// BudgetBytes is the directory-and-cell LRU budget (<0: unbounded).
	BudgetBytes int64
	// Sections is the number of cuboid sections in the snapshot.
	Sections int
	// DecodedCells and DecodedBytes count cumulative cell decodes and the
	// encoded bytes they consumed.
	DecodedCells int64
	DecodedBytes int64
	// CachedEntries and CachedBytes describe the LRU's resident set —
	// section directories and decoded cells alike; CachedBytes is the
	// estimated decoded heap footprint. Hits, misses and evictions count
	// both kinds too.
	CachedEntries int
	CachedBytes   int64
	CacheHits     int64
	CacheMisses   int64
	Evictions     int64
}

// LoadCubeLazy opens a v2 snapshot for lazy serving: the file is mapped
// read-only (pread fallback under the nommap tag or off linux), every
// section's framing and CRC-32C is validated eagerly, the preamble and
// ledger are decoded once, and cells decode one at a time on first touch
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
	size := data.size()
	if off >= size {
		return snapFrame{}, nil, frameCorrupt("missing section kind: EOF at offset %d", off)
	}
	hn := min(int64(1+binary.MaxVarintLen64), size-off)
	hdr, err := data.view(off, hn)
	if err != nil {
		return snapFrame{}, nil, err
	}
	n, w := binary.Uvarint(hdr[1:])
	if w <= 0 {
		return snapFrame{}, nil, frameCorrupt("bad section length at offset %d", off)
	}
	if n > maxSectionBytes {
		return snapFrame{}, nil, frameCorrupt("section length %d exceeds the %d byte cap", n, maxSectionBytes)
	}
	fr := snapFrame{kind: hdr[0], payloadOff: off + 1 + int64(w), payloadLen: int64(n)}
	fr.next = fr.payloadOff + fr.payloadLen + 4
	if fr.next > size {
		return snapFrame{}, nil, frameCorrupt("truncated section payload at offset %d", off)
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
		return snapFrame{}, nil, frameCorrupt("section checksum mismatch (got %08x, want %08x)", got, want)
	}
	return fr, payload, nil
}

// openLazy walks the snapshot's sections through the loaders' shared section
// decoders — only the framing walk differs: readFrame over the mapping —
// validating every frame and CRC, decoding the preamble and ledger, and
// indexing cuboid sections by key without decoding any cells.
func openLazy(data snapData, opts LazyOptions) (*Cube, error) {
	off := int64(len(magicV2))
	var fr snapFrame
	next := func() (byte, []byte, error) {
		var payload []byte
		var err error
		fr, payload, err = readFrame(data, off)
		off = fr.next
		return fr.kind, payload, err
	}
	p, err := decodePreambleV2(next)
	if err != nil {
		return nil, err
	}

	budget := opts.CacheBytes
	if budget == 0 {
		budget = DefaultLazyCacheBytes
	}
	b := &lazyBackend{
		data:   data,
		loc:    p.location,
		levels: p.levels,
		secs:   make(map[string]*lazySection, p.numCuboids),
		cache:  lru.New[lazyEntry](budget),
	}
	ledger, err := decodeBodyV2(next, p, func(payload []byte) error {
		r := &byteReader{section: "cuboid", buf: payload}
		spec, numCells, err := decodeCuboidHeaderV2(r, p.levels)
		if err != nil {
			return err
		}
		if err := validateSpec(spec, p.syms, p.schema); err != nil {
			return err
		}
		key := spec.Key()
		if _, dup := b.secs[key]; dup {
			return frameCorrupt("duplicate cuboid %s", key)
		}
		sec := &lazySection{key: key, spec: spec, numCells: numCells,
			off: fr.payloadOff, n: fr.payloadLen, cellsOff: r.off}
		b.secs[key] = sec
		b.order = append(b.order, sec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(b.order, func(i, j int) bool { return b.order[i].key < b.order[j].key })

	cube := p.cube()
	cube.lazy = b
	cube.setLedger(ledger)
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

// dir returns a section's directory through the cache: built by one flat
// walk on first touch, at its own byte cost. Build errors are not cached — a
// later touch retries — and the first one is recorded sticky for LazyErr.
func (b *lazyBackend) dir(sec *lazySection) (*sectionDir, error) {
	ent, _, err := b.cache.Do(sec.key, func() (lazyEntry, int64, error) {
		d, cost, err := b.buildDir(sec)
		return lazyEntry{dir: d}, cost, err
	})
	if err != nil {
		b.noteErr(err)
	}
	return ent.dir, err
}

// buildDir walks a section's cells once — prefixes decoded, flat graphs
// skipped — and makes every whole-section check the full decoder makes: the
// claimed cell count fits the payload, cell keys strictly ascending (what
// point reads binary-search on), no trailing bytes.
func (b *lazyBackend) buildDir(sec *lazySection) (*sectionDir, int64, error) {
	payload, err := b.view(sec)
	if err != nil {
		return nil, 0, err
	}
	r := &byteReader{section: "cuboid " + sec.key, buf: payload, off: sec.cellsOff}
	d := &sectionDir{entries: make([]dirEntry, 0, min(sec.numCells, r.rem()/minCellBytesV2))}
	cost := int64(dirBaseFootprint)
	for ci := 0; ci < sec.numCells; ci++ {
		e := dirEntry{off: int32(r.off)}
		var flags byte
		if e.values, e.count, flags, _, err = decodeCellPrefixV2(r); err != nil {
			return nil, 0, err
		}
		if flags&2 != 0 {
			if err := skipFlatGraph(r); err != nil {
				return nil, 0, err
			}
		}
		e.end = int32(r.off)
		e.key = cellKey(e.values)
		if ci > 0 && e.key <= d.entries[ci-1].key {
			return nil, 0, r.corrupt("cell %s is not after cell %s: cell keys must ascend strictly", e.key, d.entries[ci-1].key)
		}
		if flags&1 != 0 {
			d.redundant++
		}
		cost += dirEntryFootprint + int64(len(e.key)) + 4*int64(len(e.values))
		d.entries = append(d.entries, e)
	}
	if r.rem() != 0 {
		return nil, 0, r.corrupt("%d trailing bytes", r.rem())
	}
	return d, cost, nil
}

// cell returns the decoded cell a directory entry names through the cache:
// only that cell's bytes are viewed and decoded, single-flight, at the
// cell's estimated decoded heap cost. Decode errors are not cached and the
// first one is recorded sticky for LazyErr.
func (b *lazyBackend) cell(sec *lazySection, e *dirEntry) (*Cell, error) {
	ent, _, err := b.cache.Do(sec.key+"/"+e.key, func() (lazyEntry, int64, error) {
		if b.closed.Load() {
			return lazyEntry{}, 0, errLazyClosed
		}
		buf, err := b.data.view(sec.off+int64(e.off), int64(e.end-e.off))
		if err != nil {
			return lazyEntry{}, 0, err
		}
		r := &byteReader{section: "cuboid " + sec.key, buf: buf}
		cell, cost, err := decodeCellV2(r, b.loc, b.levels[sec.spec.PathLevel])
		if err == nil && r.rem() != 0 {
			err = r.corrupt("cell %s: %d bytes past its flowgraph", e.key, r.rem())
		}
		if err != nil {
			return lazyEntry{}, 0, err
		}
		b.decodedCells.Add(1)
		b.decodedBytes.Add(int64(len(buf)))
		return lazyEntry{cell: cell}, cost, nil
	})
	if err != nil {
		b.noteErr(err)
	}
	return ent.cell, err
}

// section returns a materialized cuboid's section and directory; both nil
// for an unknown cuboid or one whose directory does not build (recorded for
// LazyErr). It fronts every error-less directory read.
func (b *lazyBackend) section(specKey string) (*lazySection, *sectionDir) {
	sec := b.secs[specKey]
	if sec == nil {
		return nil, nil
	}
	d, err := b.dir(sec)
	if err != nil {
		return nil, nil
	}
	return sec, d
}

// lookup is the error-less point read behind (*Cube).Lookup and Cell. An
// unknown cuboid, or one whose directory does not build, reports not
// materialized; a cell the directory does not list, or one that fails to
// decode, reports absence from a materialized cuboid. Failures are recorded
// for LazyErr.
func (b *lazyBackend) lookup(specKey string, values []hierarchy.NodeID) (*Cell, bool) {
	sec, d := b.section(specKey)
	if d == nil {
		return nil, false
	}
	e, ok := d.find(cellKey(values))
	if !ok {
		return nil, true
	}
	cell, _ := b.cell(sec, e)
	return cell, true
}

// count is a cell's path count straight from the directory.
func (b *lazyBackend) count(specKey string, values []hierarchy.NodeID) (int64, bool) {
	if _, d := b.section(specKey); d != nil {
		if e, ok := d.find(cellKey(values)); ok {
			return e.count, true
		}
	}
	return 0, false
}

// cellValues lists a materialized cuboid's value tuples in ascending key
// order from its directory, decoding no graph. The outer slice is the
// caller's; the tuples are shared and read-only, as eager cells' are.
func (b *lazyBackend) cellValues(specKey string) ([][]hierarchy.NodeID, bool) {
	_, d := b.section(specKey)
	if d == nil {
		return nil, false
	}
	out := make([][]hierarchy.NodeID, len(d.entries))
	for i := range d.entries {
		out[i] = d.entries[i].values
	}
	return out, true
}

// cellsMatching decodes, in ascending key order, the cells of a cuboid whose
// value tuple passes match: selection runs over the directory, so only the
// selected cells' graphs are ever decoded. A cell that fails to decode is
// left out (and recorded); the fold certificate then sums short and refuses.
func (b *lazyBackend) cellsMatching(specKey string, match func([]hierarchy.NodeID) bool) []*Cell {
	sec, d := b.section(specKey)
	if d == nil {
		return nil
	}
	var out []*Cell
	for i := range d.entries {
		if !match(d.entries[i].values) {
			continue
		}
		if cell, err := b.cell(sec, &d.entries[i]); err == nil {
			out = append(out, cell)
		}
	}
	return out
}

// cuboid decodes one whole section, uncached: what Validate and
// (*Cube).Cuboid need. Point reads never come here.
func (b *lazyBackend) cuboid(sec *lazySection) (*Cuboid, error) {
	payload, err := b.view(sec)
	var cb *Cuboid
	if err == nil {
		cb, err = decodeCuboidV2(payload, b.loc, b.levels)
	}
	if err != nil {
		b.noteErr(err)
		return nil, err
	}
	return cb, nil
}

// specs lists the section specs in ascending key order.
func (b *lazyBackend) specs() []CuboidSpec {
	out := make([]CuboidSpec, len(b.order))
	for i, sec := range b.order {
		out[i] = sec.spec
	}
	return out
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

// summaries is the flat-scan CuboidSummaries: per-section cell counts from
// the headers, redundant censuses from the directories.
func (b *lazyBackend) summaries() ([]CuboidSummary, error) {
	out := make([]CuboidSummary, 0, len(b.order))
	for _, sec := range b.order {
		d, err := b.dir(sec)
		if err != nil {
			return nil, err
		}
		out = append(out, CuboidSummary{
			Key:       sec.key,
			Item:      sec.spec.Item,
			PathLevel: sec.spec.PathLevel,
			Cells:     sec.numCells,
			Redundant: d.redundant,
		})
	}
	return out, nil
}

// topExceptions collects every exception by flat-scanning the mapped
// sections in sorted key order, cell by cell in directory order — the order
// the eager walk produces: cell prefixes and flat graph columns are decoded,
// but no pointer tree is built and no cell enters the LRU — the Node chains
// come from flowgraph.FlatExceptions.
func (b *lazyBackend) topExceptions() ([]RankedException, error) {
	var out []RankedException
	for _, sec := range b.order {
		d, err := b.dir(sec)
		if err != nil {
			return nil, err
		}
		payload, err := b.view(sec)
		if err != nil {
			return nil, err
		}
		for i := range d.entries {
			e := &d.entries[i]
			r := &byteReader{section: "cuboid " + sec.key, buf: payload[:e.end], off: int(e.off)}
			_, _, flags, _, err := decodeCellPrefixV2(r)
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
				return nil, r.corrupt("cell %s: %v", e.key, err)
			}
			for _, x := range xs {
				out = append(out, RankedException{Spec: sec.spec, Values: e.values, Exception: x})
			}
		}
	}
	return out, nil
}

// validate runs the eager per-cuboid validation over every section, each
// decoded whole and dropped again: nothing enters the cache.
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
	cuboids, err := decodeCuboidsV2(payloads, b.loc, b.levels)
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
// sections are raw payload copies straight from the mapping, each checked by
// its directory walk first.
func (b *lazyBackend) save(c *Cube, w io.Writer) error {
	return writeSnapshotV2(w, c, len(b.order), func(i int) ([]byte, error) {
		sec := b.order[i]
		if _, err := b.dir(sec); err != nil {
			return nil, err
		}
		return b.view(sec)
	})
}

// stats snapshots the backend's gauges.
func (b *lazyBackend) stats() LazyStats {
	c := b.cache.Stats()
	return LazyStats{
		Mapped:        snapMapped,
		MappedBytes:   b.data.size(),
		BudgetBytes:   b.cache.Budget(),
		Sections:      len(b.order),
		DecodedCells:  b.decodedCells.Load(),
		DecodedBytes:  b.decodedBytes.Load(),
		CachedEntries: c.Entries,
		CachedBytes:   c.Cost,
		CacheHits:     c.Hits,
		CacheMisses:   c.Misses,
		Evictions:     c.Evictions,
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
