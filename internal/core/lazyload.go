package core

// Lazy (mmap-backed) snapshot serving: LoadCubeLazy maps a v2 snapshot
// read-only, eagerly validates the framing — magic, header, section index,
// every section's CRC-32C — and decodes the preamble and ledger once, but
// leaves every cuboid section as a byte range into the mapping: the base
// layer of one Cuboid (cube.go), under the cells a lineage writes over it.
// The unit of decoding and caching is the cell: one flat walk over a
// section (prefixes decoded, flowgraphs skipped) yields its directory —
// sorted cell keys, value tuples, counts, redundancy bits and byte offsets —
// and a point read binary-searches the directory and decodes only the cell
// it names. Directories and decoded cells share one byte-budgeted LRU with
// single-flight dedup, so a server's cold open costs milliseconds, a cold
// lookup costs one cell, and resident decoded state stays bounded regardless
// of cube size. Summaries, censuses, fold-source selection and cell
// enumeration answer from directories, exception queries from flat scans
// over the mapped arrays, and Save copies the bytes of every base cell
// nothing was written over (the FlowCube partial-materialization idea
// applied to storage; see DESIGN.md §8).
//
// Decoded structures never alias the mapping — strings and columns are
// fresh heap allocations — so eviction only drops cache references and
// already-returned cells stay valid; Close (or the finalizer) is the only
// operation that invalidates the mapping, and it must not race in-flight
// queries, the same contract snapshot swapping already has.
//
// This file is on the immutcube allowlist: the cube assembled here is
// freshly constructed, and the backend's internal caches are guarded by
// their own synchronization, invisible to the Cube's immutable contract.

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
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

// lazySection is one cuboid section of the snapshot, the base of its
// Cuboid: its key, path level and cell count from the section header, plus
// the payload byte range and where in it the cells start.
type lazySection struct {
	b        *lazyBackend
	key      string
	level    pathdb.PathLevel
	numCells int
	off, n   int64
	cellsOff int
}

// sectionDir is the result of one flat walk over a section's cells: one
// entry per cell in ascending key order — the order the section stores them
// in. It is immutable once built; callers share it.
type sectionDir struct {
	entries []dirEntry
}

// dirEntry describes one cell without its graph: its key and value tuple,
// its path count and redundancy bit (so a census never decodes a graph),
// and its byte range within the section payload.
type dirEntry struct {
	key       string
	values    []hierarchy.NodeID
	count     int64
	off, end  int32 // maxSectionBytes fits int32
	redundant bool
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

// lazyBackend holds everything the sections of one mapped snapshot share:
// the mapped data, the directory-and-cell LRU, and the sticky first decode
// error.
type lazyBackend struct {
	data     snapData
	loc      *hierarchy.Hierarchy
	sections int

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
// The returned cube holds one Cuboid per section with the mapped section as
// its base, so it answers every read byte-identically to an eager Load of
// the same file, and every mutator and Fork works on it: a write copies the
// cell it reaches into the cuboid's Cells, over the base, and forks share
// the mapping. Close releases the mapping for the whole lineage; it must not
// race in-flight queries. Decode errors on first touch are
// *CorruptSnapshotError values: paths that return errors propagate them,
// and the error-less query paths record the first one for (*Cube).LazyErr
// and report absence.
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
// giving every cuboid section a Cuboid without decoding any cells.
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
	b := &lazyBackend{data: data, loc: p.location, cache: lru.New[lazyEntry](budget)}
	// The mapping is generation 0 of the lineage and the opened cube
	// generation 1, so the cells the sections decode to — shared through the
	// cache by every reader — are never anyone's to write: a writer copies
	// them first (delta.go).
	cube := p.cube()
	cube.gen = 1
	cube.lazy = b
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
		if _, dup := cube.Cuboids[key]; dup {
			return frameCorrupt("duplicate cuboid %s", key)
		}
		cube.Cuboids[key] = &Cuboid{Spec: spec, base: &lazySection{b: b, key: key,
			level: p.levels[spec.PathLevel], numCells: numCells,
			off: fr.payloadOff, n: fr.payloadLen, cellsOff: r.off}}
		return nil
	})
	if err != nil {
		return nil, err
	}
	b.sections = len(cube.Cuboids)
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

// view returns n bytes of the section's payload from off, refusing after
// close.
func (s *lazySection) view(off, n int64) ([]byte, error) {
	if s.b.closed.Load() {
		return nil, errLazyClosed
	}
	return s.b.data.view(s.off+off, n)
}

// dir returns the section's directory through the cache: built by one flat
// walk on first touch, at its own byte cost. Build errors are not cached — a
// later touch retries — and the first one is recorded sticky for LazyErr.
func (s *lazySection) dir() (*sectionDir, error) {
	ent, _, err := s.b.cache.Do(s.key, func() (lazyEntry, int64, error) {
		d, cost, err := s.buildDir()
		return lazyEntry{dir: d}, cost, err
	})
	s.b.noteErr(err)
	return ent.dir, err
}

// buildDir walks the section's cells once — prefixes decoded, flat graphs
// skipped — and makes every whole-section check the full decoder makes: the
// claimed cell count fits the payload, cell keys strictly ascending (what
// point reads binary-search on), no trailing bytes.
func (s *lazySection) buildDir() (*sectionDir, int64, error) {
	payload, err := s.view(0, s.n)
	if err != nil {
		return nil, 0, err
	}
	r := &byteReader{section: "cuboid " + s.key, buf: payload, off: s.cellsOff}
	d := &sectionDir{entries: make([]dirEntry, 0, min(s.numCells, r.rem()/minCellBytesV2))}
	cost := int64(dirBaseFootprint)
	for ci := 0; ci < s.numCells; ci++ {
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
		e.redundant = flags&1 != 0
		if ci > 0 && e.key <= d.entries[ci-1].key {
			return nil, 0, r.corrupt("cell %s is not after cell %s: cell keys must ascend strictly", e.key, d.entries[ci-1].key)
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
func (s *lazySection) cell(e *dirEntry) (*Cell, error) {
	ent, _, err := s.b.cache.Do(s.key+"/"+e.key, func() (lazyEntry, int64, error) {
		buf, err := s.view(int64(e.off), int64(e.end-e.off))
		if err != nil {
			return lazyEntry{}, 0, err
		}
		r := &byteReader{section: "cuboid " + s.key, buf: buf}
		cell, cost, err := decodeCellV2(r, s.b.loc, s.level)
		if err == nil && r.rem() != 0 {
			err = r.corrupt("cell %s: %d bytes past its flowgraph", e.key, r.rem())
		}
		if err != nil {
			return lazyEntry{}, 0, err
		}
		s.b.decodedCells.Add(1)
		s.b.decodedBytes.Add(int64(len(buf)))
		return lazyEntry{cell: cell}, cost, nil
	})
	s.b.noteErr(err)
	return ent.cell, err
}

// exceptions reads the exceptions of the cell a directory entry names
// straight from its flat columns (flowgraph.FlatExceptions), in the order
// the pointer-form graph lists them: no Node tree is built and nothing
// enters the cache. Errors are recorded for LazyErr.
func (s *lazySection) exceptions(e *dirEntry) (xs []flowgraph.Exception, err error) {
	defer func() { s.b.noteErr(err) }()
	buf, err := s.view(int64(e.off), int64(e.end-e.off))
	if err != nil {
		return nil, err
	}
	r := &byteReader{section: "cuboid " + s.key, buf: buf}
	_, _, flags, _, err := decodeCellPrefixV2(r)
	if err != nil || flags&2 == 0 {
		return nil, err
	}
	flat, err := decodeFlatGraph(r)
	if err != nil || len(flat.ExcNode) == 0 {
		return nil, err
	}
	if xs, err = flowgraph.FlatExceptions(flat); err != nil {
		return nil, r.corrupt("cell %s: %v", e.key, err)
	}
	return xs, nil
}

// stats snapshots the backend's gauges.
func (b *lazyBackend) stats() LazyStats {
	c := b.cache.Stats()
	return LazyStats{
		Mapped:        snapMapped,
		MappedBytes:   b.data.size(),
		BudgetBytes:   b.cache.Budget(),
		Sections:      b.sections,
		DecodedCells:  b.decodedCells.Load(),
		DecodedBytes:  b.decodedBytes.Load(),
		CachedEntries: c.Entries,
		CachedBytes:   c.Cost,
		CacheHits:     c.Hits,
		CacheMisses:   c.Misses,
		Evictions:     c.Evictions,
	}
}

// LazyStats reports the lazy serving state of the cube — of the mapped
// snapshot its lineage shares; ok is false for cubes built, Loaded or
// merged in memory.
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
// cubes with no mapped snapshot.
func (c *Cube) LazyErr() error {
	if c.lazy == nil {
		return nil
	}
	return c.lazy.lazyErr()
}

// Close releases a lazily loaded cube's mapping (and, under the fallback,
// its file descriptor) — for every fork of it too. It is idempotent, must
// not race in-flight queries (the same contract snapshot swapping has), and
// is a no-op for cubes with no mapped snapshot; dropped lazy cubes are also
// released by a finalizer, so Close is an optimization for deterministic
// release, not a correctness requirement.
func (c *Cube) Close() error {
	if c.lazy == nil {
		return nil
	}
	return c.lazy.close()
}
