package core

// Lazy (mmap-backed) snapshot serving: LoadCubeLazy maps a v2 snapshot
// read-only, eagerly validates the framing — magic, header, section index,
// every section's CRC-32C — and decodes the preamble once, but leaves
// every cuboid section as a byte range into the mapping: the base layer of
// one Cuboid (cube.go), under the cells a lineage writes over it.
// The unit of decoding and caching is the cell: one flat walk over a
// section (prefixes decoded, flowgraphs skipped) yields its directory —
// sorted value tuples, counts, redundancy bits and byte offsets — and a
// point read binary-searches the directory and decodes only the cell it
// names. Directories and decoded cells share one byte-budgeted LRU with
// single-flight dedup, so a server's cold open costs milliseconds, a cold
// lookup costs one cell, and resident decoded state stays bounded regardless
// of cube size. Summaries, censuses, fold-source selection and cell
// enumeration answer from directories, exception queries from flat scans
// over the mapped arrays, and Save copies the bytes of every base cell
// nothing was written over (the FlowCube partial-materialization idea
// applied to storage; see DESIGN.md §8).
//
// The open here is the only snapshot reader: Load runs it over the stream
// read into memory, then decodes every section through the same walk the
// directory build takes, and drops the base. Verify, flowquery's open, takes
// the directory walk with a scratch graph instead: every flat graph decoded
// and checked, no tree built, the directories kept.
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
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"slices"
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
	// in the decoded-footprint model's units (see flatFootprint) rather
	// than encoded payload bytes. 0 means DefaultLazyCacheBytes; negative
	// disables eviction. One entry larger than the whole budget still
	// caches (the LRU never evicts its only entry), so the resident bound
	// is max(CacheBytes, largest single directory or cell).
	CacheBytes int64
}

// snapData is the byte source behind an opened snapshot: an mmap on linux
// (zero-copy views), an io.ReaderAt fallback elsewhere or under the nommap
// build tag (per-view pread into a fresh buffer), or a stream read into
// memory (memData, for Load and LoadMeta).
type snapData interface {
	// view returns the byte range [off, off+n). A range that runs past the
	// end of the data returns what of it there is and io.EOF, which is how
	// the frame reader detects truncation on every source alike. Mapped and
	// in-memory sources return a subslice, which callers must not retain
	// past close; the fallback returns a fresh copy.
	view(off, n int64) ([]byte, error)
	size() int64
	close() error
}

// viewOf is view over bytes in memory.
func viewOf(b []byte, off, n int64) ([]byte, error) {
	if end := off + n; end <= int64(len(b)) {
		return b[off:end:end], nil
	}
	return b[min(off, int64(len(b))):len(b):len(b)], io.EOF
}

// readChunk bounds how far one read grows an in-memory source past the
// bytes it holds, so a lying frame length costs one chunk, not its claim.
const readChunk = 1 << 20

// memData is a stream read into memory on demand: a view reads forward
// until the stream holds the range, so LoadMeta stops after the plan and a
// claimed length fails when the stream ends. ctx is checked before every
// read.
type memData struct {
	ctx context.Context //flowlint:ignore ctxflow a memData lives for the one load call that made it
	r   io.Reader
	buf []byte
	err error // the read error that ended the stream: io.EOF once drained
}

// newMemData reads r on demand into a buffer allocated once at hint bytes,
// what r reports it holds (+1, to read the EOF without growing). Past that,
// or past 4 KiB when r cannot tell (hint 0), the buffer grows by at most
// readChunk per read.
func newMemData(ctx context.Context, r io.Reader, hint int64) *memData {
	return &memData{ctx: ctx, r: r, buf: make([]byte, 0, max(hint+1, 4<<10))}
}

// sizeHint reports how many bytes r holds when it can tell: Len on an
// in-memory reader, the size of a regular file; 0 otherwise.
func sizeHint(r io.Reader) int64 {
	switch r := r.(type) {
	case interface{ Len() int }:
		return int64(r.Len())
	case *os.File:
		if st, err := r.Stat(); err == nil && st.Mode().IsRegular() {
			return st.Size()
		}
	}
	return 0
}

func (d *memData) view(off, n int64) ([]byte, error) {
	for int64(len(d.buf)) < off+n && d.err == nil {
		if d.err = d.ctx.Err(); d.err != nil {
			break
		}
		if len(d.buf) == cap(d.buf) {
			d.buf = slices.Grow(d.buf, int(min(off+n-int64(len(d.buf)), readChunk)))
		}
		var m int
		m, d.err = d.r.Read(d.buf[len(d.buf):cap(d.buf)])
		d.buf = d.buf[:len(d.buf)+m]
	}
	if int64(len(d.buf)) < off+n && d.err != io.EOF {
		return nil, d.err
	}
	return viewOf(d.buf, off, n)
}

func (d *memData) size() int64 { return int64(len(d.buf)) }

func (d *memData) close() error {
	d.buf = nil
	return nil
}

// lazySection is one cuboid section of the snapshot, the base of its
// Cuboid: its ordinal and key, path level and cell count from the section
// header, plus the payload byte range and where in it the cells start.
type lazySection struct {
	b        *lazyBackend
	idx      int32
	key      string
	level    pathdb.PathLevel
	numCells int
	off, n   int64
	cellsOff int
}

// sectionDir is the result of one flat walk over a section's cells: one
// entry per cell in CompareCells order — the order the section stores them
// in. It is immutable once built; callers share it.
type sectionDir struct {
	entries []dirEntry
}

// dirEntry describes one cell without its graph: its value tuple, its path
// count and redundancy bit (so a census never decodes a graph), and its
// byte range within the section payload.
type dirEntry struct {
	values    []hierarchy.NodeID
	count     int64
	off, end  int32 // maxSectionBytes fits int32
	redundant bool
}

// Directory-footprint model, the cache cost of a sectionDir: the entry
// struct plus the value allocation's header, then its bytes.
const (
	dirBaseFootprint  = 64
	dirEntryFootprint = 72
)

// find binary-searches the directory for a cell; nil when it holds none.
func (d *sectionDir) find(values []hierarchy.NodeID) *dirEntry {
	i, ok := slices.BinarySearchFunc(d.entries, values, func(e dirEntry, v []hierarchy.NodeID) int {
		return CompareCells(e.values, v)
	})
	if !ok {
		return nil
	}
	return &d.entries[i]
}

// lazyKey names an entry of the backend's one cache by section ordinal: the
// section's directory (off < 0), or the cell at byte offset off of its
// payload. It holds no pointer, so the cache never reaches back to its
// backend (whose finalizer releases the mapping).
type lazyKey struct {
	section, off int32
}

// lazyEntry is what the backend's one cache holds: a section's directory or
// one decoded cell.
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

	cache *lru.Cache[lazyKey, lazyEntry]

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
// for /metrics-style reporting (the JSON tags are flowserve's names).
type LazyStats struct {
	// Mapped is true when the snapshot is served from an mmap (false under
	// the pread fallback).
	Mapped bool `json:"mapped"`
	// MappedBytes is the snapshot file size backing the cube.
	MappedBytes int64 `json:"mapped_bytes"`
	// BudgetBytes is the directory-and-cell LRU budget (<0: unbounded).
	BudgetBytes int64 `json:"budget_bytes"`
	// Sections is the number of cuboid sections in the snapshot.
	Sections int `json:"sections"`
	// DecodedCells and DecodedBytes count cumulative cell decodes and the
	// encoded bytes they consumed.
	DecodedCells int64 `json:"decoded_cells"`
	DecodedBytes int64 `json:"decoded_bytes"`
	// CachedEntries and CachedBytes describe the LRU's resident set —
	// section directories and decoded cells alike; CachedBytes is the
	// estimated decoded heap footprint. Hits, misses and evictions count
	// both kinds too.
	CachedEntries int   `json:"cached_entries"`
	CachedBytes   int64 `json:"cached_bytes"`
	CacheHits     int64 `json:"cache_hits"`
	CacheMisses   int64 `json:"cache_misses"`
	Evictions     int64 `json:"evictions"`
}

// LoadCubeLazy opens a v2 snapshot for lazy serving: the file is mapped
// read-only (pread fallback under the nommap tag or off linux), every
// section's framing and CRC-32C is validated eagerly, the preamble is
// decoded once, and cells decode one at a time on first touch
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

// frameReader reads a snapshot's framed sections in file order.
type frameReader struct {
	data       snapData
	off        int64 // where the next frame starts
	payloadOff int64 // where the last payload next returned starts
}

// next parses and CRC-checks the frame at off. The payload is a view of the
// data (zero-copy when mapped or in memory). A frame the data ends inside
// shows as a short view, so every source gets the same frame checks.
func (f *frameReader) next() (kind byte, payload []byte, err error) {
	hdr, err := f.data.view(f.off, 1+binary.MaxVarintLen64)
	if err != nil && !errors.Is(err, io.EOF) {
		return 0, nil, err
	}
	if len(hdr) == 0 {
		return 0, nil, frameCorrupt("missing section kind: EOF at offset %d", f.off)
	}
	n, w := binary.Uvarint(hdr[1:])
	if w <= 0 {
		return 0, nil, frameCorrupt("bad section length at offset %d", f.off)
	}
	if n > maxSectionBytes {
		return 0, nil, frameCorrupt("section length %d exceeds the %d byte cap", n, maxSectionBytes)
	}
	f.payloadOff = f.off + 1 + int64(w)
	body, err := f.data.view(f.payloadOff, int64(n)+4)
	if errors.Is(err, io.EOF) {
		return 0, nil, frameCorrupt("truncated section payload at offset %d", f.off)
	}
	if err != nil {
		return 0, nil, err
	}
	payload = body[:n:n]
	if got, want := crc32.Checksum(payload, snapshotCRCTable), binary.LittleEndian.Uint32(body[n:]); got != want {
		return 0, nil, frameCorrupt("section checksum mismatch (got %08x, want %08x)", got, want)
	}
	f.off = f.payloadOff + int64(n) + 4
	return hdr[0], payload, nil
}

// openLazy is the one snapshot reader. It checks every frame and CRC,
// decodes the preamble, and gives every cuboid section a Cuboid over it
// without decoding any cells. After the preamble come exactly the header's
// count of cuboid sections and the end section, which ends the data.
func openLazy(data snapData, opts LazyOptions) (*Cube, error) {
	cube, h, frames, err := openSnapshot(data)
	if err != nil {
		return nil, err
	}
	budget := opts.CacheBytes
	if budget == 0 {
		budget = DefaultLazyCacheBytes
	}
	b := &lazyBackend{data: data, loc: cube.Schema.Location, cache: lru.New[lazyKey, lazyEntry](budget)}
	// The mapping is generation 0 of the lineage and the opened cube
	// generation 1, so the cells the sections decode to — shared through the
	// cache by every reader — are never anyone's to write: a writer copies
	// them first (delta.go).
	cube.gen = 1
	cube.lazy = b
	for {
		kind, payload, err := frames.next()
		if err != nil {
			return nil, err
		}
		switch kind {
		case secEnd:
			if uint64(len(cube.Cuboids)) != h.numCuboids {
				return nil, frameCorrupt("%d cuboid sections, header promised %d", len(cube.Cuboids), h.numCuboids)
			}
			if rest, err := data.view(frames.off, 1); len(rest) > 0 {
				return nil, frameCorrupt("bytes after the end section at offset %d", frames.off)
			} else if !errors.Is(err, io.EOF) {
				return nil, err
			}
			b.sections = len(cube.Cuboids)
			// Backstop for dropped cubes: release the mapping (and the
			// fallback's fd) when the backend becomes unreachable without an
			// explicit Close — a server that reloads and lets old snapshots
			// age out relies on this.
			runtime.SetFinalizer(b, (*lazyBackend).finalize)
			return cube, nil
		case secCuboid:
			if uint64(len(cube.Cuboids)) >= h.numCuboids {
				return nil, frameCorrupt("more cuboid sections than the header's %d", h.numCuboids)
			}
			r := &byteReader{section: "cuboid", buf: payload}
			spec, numCells, err := decodeCuboidHeaderV2(r, cube.Config.Plan.PathLevels)
			if err != nil {
				return nil, err
			}
			if err := cube.validateSpec(spec); err != nil {
				return nil, err
			}
			key := spec.Key()
			if _, dup := cube.Cuboids[key]; dup {
				return nil, frameCorrupt("duplicate cuboid %s", key)
			}
			cube.Cuboids[key] = &Cuboid{Spec: spec, base: &lazySection{b: b, idx: int32(len(cube.Cuboids)), key: key,
				level: cube.Config.Plan.PathLevels[spec.PathLevel], numCells: numCells,
				off: frames.payloadOff, n: int64(len(payload)), cellsOff: r.off}}
		default:
			return nil, frameCorrupt("unknown section kind %d", kind)
		}
	}
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
	ent, _, err := s.b.cache.Do(nil, lazyKey{s.idx, -1}, func() (lazyEntry, int64, error) {
		d, cost, err := s.buildDir(nil)
		return lazyEntry{dir: d}, cost, err
	})
	s.b.noteErr(err)
	return ent.dir, err
}

// walk is the one pass over the section's cells, which the directory build
// and Load's decode share: cell decodes or skips the cell r is at, leaving r
// at the next, and returns its values. walk makes the whole-section checks:
// cells strictly ascending in CompareCells order (what point reads
// binary-search on), no trailing bytes.
func (s *lazySection) walk(cell func(r *byteReader) ([]hierarchy.NodeID, error)) error {
	payload, err := s.view(0, s.n)
	if err != nil {
		return err
	}
	r := &byteReader{section: "cuboid " + s.key, buf: payload, off: s.cellsOff}
	var prev []hierarchy.NodeID
	for ci := 0; ci < s.numCells; ci++ {
		values, err := cell(r)
		if err != nil {
			return err
		}
		if ci > 0 && CompareCells(values, prev) <= 0 {
			return r.corrupt("cell %s is not after cell %s: cells must ascend strictly", formatCell(values), formatCell(prev))
		}
		prev = values
	}
	if r.rem() != 0 {
		return r.corrupt("%d trailing bytes", r.rem())
	}
	return nil
}

// cellCap bounds what the section's claimed cell count may pre-allocate by
// the cells its payload can hold.
func (s *lazySection) cellCap() int {
	return min(s.numCells, int(s.n-int64(s.cellsOff))/minCellBytesV2)
}

// buildDir walks the section once, decoding cell prefixes. Given no
// scratch graph it steps over each flat graph by its byte length — the
// directory a touch builds. Given one, it decodes every graph into it and
// checks it as Unflatten would (Verify): the scratch columns are reused from
// graph to graph, so the walk allocates only the directory.
func (s *lazySection) buildDir(scratch *flowgraph.Flat) (*sectionDir, int64, error) {
	d := &sectionDir{entries: make([]dirEntry, 0, s.cellCap())}
	cost := int64(dirBaseFootprint)
	err := s.walk(func(r *byteReader) ([]hierarchy.NodeID, error) {
		e := dirEntry{off: int32(r.off)}
		var flags byte
		var err error
		if e.values, e.count, flags, _, err = decodeCellPrefixV2(r); err != nil {
			return nil, err
		}
		if flags&2 != 0 {
			if scratch == nil {
				r.off, err = r.graphEnd() // the whole walk fails on err
			} else if err = decodeCellGraph(r, scratch); err == nil {
				if err = scratch.Check(s.b.loc); err != nil {
					err = r.corrupt("cell %s: %v", formatCell(e.values), err)
				}
			}
			if err != nil {
				return nil, err
			}
		}
		e.end = int32(r.off)
		e.redundant = flags&1 != 0
		cost += dirEntryFootprint + 4*int64(len(e.values))
		d.entries = append(d.entries, e)
		return e.values, nil
	})
	if err != nil {
		return nil, 0, err
	}
	return d, cost, nil
}

// Verify proves a lazily opened cube's mapped sections decode: it walks
// every cell of every section once — prefix, flat graph, the structural
// check Unflatten runs — on GOMAXPROCS workers, each reusing one scratch
// graph, so it rejects exactly the snapshots Load rejects while building no
// flowgraph. Every section is walked, even one whose directory a touch
// already built: a directory proves nothing about graph interiors. The
// directories it builds are left in the cache, so a census or point read
// after it walks nothing again. It returns the first error in the order
// Load reports them (sorted cuboid keys) and records it for LazyErr; ctx is
// checked before each section. Cubes with no mapped snapshot have nothing
// to verify.
func (c *Cube) Verify(ctx context.Context) error {
	if c.lazy == nil {
		return nil
	}
	var sections []*lazySection
	for _, cb := range c.sortedCuboids() {
		if cb.base != nil {
			sections = append(sections, cb.base)
		}
	}
	scratch := sync.Pool{New: func() any { return new(flowgraph.Flat) }}
	errs := make([]error, len(sections))
	forEach(runtime.GOMAXPROCS(0), len(sections), func(i int) {
		if errs[i] = ctx.Err(); errs[i] != nil {
			return
		}
		s := sections[i]
		flat := scratch.Get().(*flowgraph.Flat)
		d, cost, err := s.buildDir(flat)
		scratch.Put(flat)
		if err == nil {
			_, _, err = s.b.cache.Do(nil, lazyKey{s.idx, -1}, func() (lazyEntry, int64, error) {
				return lazyEntry{dir: d}, cost, nil
			})
		}
		errs[i] = err
	})
	for _, err := range errs {
		if err != nil {
			if err != ctx.Err() { // a cancelled walk is no corrupt snapshot
				c.lazy.noteErr(err)
			}
			return err
		}
	}
	return nil
}

// decodeAll walks the section once, decoding every cell: Load's eager
// decode, which bypasses the cache.
func (s *lazySection) decodeAll() (map[CellID]*Cell, error) {
	cells := make(map[CellID]*Cell, s.cellCap())
	err := s.walk(func(r *byteReader) ([]hierarchy.NodeID, error) {
		cell, _, err := decodeCellV2(r, s.b.loc, s.level)
		if err != nil {
			return nil, err
		}
		cells[MakeCellID(cell.Values)] = cell
		return cell.Values, nil
	})
	if err != nil {
		return nil, err
	}
	return cells, nil
}

// cell returns the decoded cell a directory entry names through the cache:
// only that cell's bytes are viewed and decoded, single-flight, at the
// cell's estimated decoded heap cost. Decode errors are not cached and the
// first one is recorded sticky for LazyErr.
func (s *lazySection) cell(e *dirEntry) (*Cell, error) {
	ent, _, err := s.b.cache.Do(nil, lazyKey{s.idx, e.off}, func() (lazyEntry, int64, error) {
		buf, err := s.view(int64(e.off), int64(e.end-e.off))
		if err != nil {
			return lazyEntry{}, 0, err
		}
		r := &byteReader{section: "cuboid " + s.key, buf: buf, base: int(e.off)}
		cell, cost, err := decodeCellV2(r, s.b.loc, s.level)
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
	r := &byteReader{section: "cuboid " + s.key, buf: buf, base: int(e.off)}
	_, _, flags, _, err := decodeCellPrefixV2(r)
	if err != nil || flags&2 == 0 {
		return nil, err
	}
	flat := &flowgraph.Flat{}
	if err := decodeCellGraph(r, flat); err != nil || len(flat.ExcNode) == 0 {
		return nil, err
	}
	if xs, err = flowgraph.FlatExceptions(flat, s.b.loc); err != nil {
		return nil, r.corrupt("cell %s: %v", formatCell(e.values), err)
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
