package core

// Snapshot format v2, the only snapshot format: a columnar binary cube
// encoding (see DESIGN.md §8). The file is
//
//	magic "FCUBEv2\n" (8 bytes)
//	sections: kind (1 byte) · payload length (uvarint) · payload ·
//	          CRC-32C of the payload (4 bytes little-endian)
//	  header      format version, thresholds, exception flags, section census
//	  hierarchies location hierarchy plus every item dimension
//	  plan        materialized dimension levels and path levels
//	  cuboid ×N   one section per cuboid, cells with flat flowgraphs
//	  end         empty terminator section
//
// Cuboid sections are independent byte ranges, so Save encodes them on
// Workers goroutines and Load decodes them the same way; both merge results
// in the deterministic sorted-cuboid-key order the sections are written in,
// so the output bytes (and the loaded cube) are identical at any worker
// count. Anything that does not open with the magic is rejected (CheckMagic),
// and so is a header of any format version but formatVersionV2's, 5, which
// stores each flowgraph once, as its node columns and duration
// distributions (flatgraph.go), framed by its byte length: snapshots are
// derived data, rebuilt from the path database, so no older version's
// decoder is kept.
//
// There is one reader, over three byte sources (snapData, lazyload.go): a
// mapping or preads for LoadCubeLazy, a stream read into memory for Load and
// LoadMeta. It is hardened against corrupt or adversarial input: a stream is
// read in bounded chunks (a lying length fails at the stream's end instead
// of pre-allocating the claim), every element count inside a section is
// bounded by the bytes remaining before its column is allocated, and all
// failures surface as *CorruptSnapshotError.

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"

	"flowcube/internal/flowgraph"
	"flowcube/internal/hierarchy"
	"flowcube/internal/pathdb"
	"flowcube/internal/transact"
)

// magicV2 opens every snapshot.
const magicV2 = "FCUBEv2\n"

// CheckMagic is the one format gate: every snapshot open passes an input's
// first bytes through it, and so can a caller sniffing a file of unknown
// kind. head holds the input's first bytes, or all of a shorter input:
// anything that does not open with the magic — a pre-v2 gob snapshot, a path
// database, a truncated file — is rejected.
func CheckMagic(head []byte) error {
	if len(head) >= len(magicV2) && string(head[:len(magicV2)]) == magicV2 {
		return nil
	}
	return &CorruptSnapshotError{Section: "magic", Detail: "not a v2 snapshot; " +
		"pre-v2 snapshots must be rebuilt from the path database (flowquery -in x.fdb -save x.fcb)"}
}

// formatVersionV2 is written in the header section; the decoder rejects
// every other version. Version 3 added the exception-mining flags, without
// which an append to a loaded cube would mine differently from the build.
// Version 4 dropped each node's transition distribution, which its
// children's counts carry, and the single-stage exceptions flag (bit 2),
// which no build reads. Version 5 frames each cell's flowgraph by its byte
// length, so a directory walk steps over graphs instead of parsing them.
const formatVersionV2 = 5

// Header flag bits: the Config switch a loaded cube must keep for its
// appends to equal a rebuild, and the Compress mark that refuses them.
const (
	headerMineExceptions = 1
	headerCompressed     = 4
)

// Section kinds.
const (
	secEnd         = 0
	secHeader      = 1
	secHierarchies = 2
	secPlan        = 3
	secCuboid      = 4
)

// maxSectionBytes caps one section's claimed payload length (1 GiB). Real
// sections are vastly smaller; anything larger is rejected as corrupt
// before any allocation happens.
const maxSectionBytes = 1 << 30

var snapshotCRCTable = crc32.MakeTable(crc32.Castagnoli)

// CorruptSnapshotError reports structurally invalid snapshot input: a bad
// magic or CRC, a truncated section, or a section whose claimed element
// counts cannot fit the bytes that carry them. It deliberately covers both
// accidental corruption and adversarial input — Load allocates nothing an
// attacker-controlled length field can inflate.
type CorruptSnapshotError struct {
	// Section names the section being decoded ("header", "plan",
	// "cuboid 3,2@0", ...) or "frame" for the outer section framing.
	Section string
	// Detail describes the violated invariant.
	Detail string
}

func (e *CorruptSnapshotError) Error() string {
	return fmt.Sprintf("core: corrupt snapshot: %s: %s", e.Section, e.Detail)
}

// byteReader decodes one section payload with bounds checks. Element counts
// read through count are limited by the bytes remaining at that point:
// every element of every column costs at least one encoded byte, so an
// honest count can never exceed rem(), and a dishonest one is rejected
// before its column is allocated.
type byteReader struct {
	section string
	buf     []byte
	off     int
	// base is where buf starts in the section payload: a point read decodes
	// from a view of one cell, and still names offsets in the section.
	base int
}

func (r *byteReader) corrupt(format string, args ...any) error {
	return &CorruptSnapshotError{Section: r.section, Detail: fmt.Sprintf(format, args...)}
}

func (r *byteReader) rem() int { return len(r.buf) - r.off }

// at is r's offset in the section payload, the one error messages name.
func (r *byteReader) at() int { return r.base + r.off }

// uvarint, varint and count take a one-byte fast path: most values in a
// snapshot — ids, child counts, distribution lengths, duration gaps — are
// below 128, and the verify and directory walks spend their time here.
func (r *byteReader) uvarint() (uint64, error) {
	if r.off < len(r.buf) && r.buf[r.off] < 0x80 {
		r.off++
		return uint64(r.buf[r.off-1]), nil
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, r.corrupt("bad uvarint at offset %d", r.at())
	}
	r.off += n
	return v, nil
}

func (r *byteReader) varint() (int64, error) {
	if r.off < len(r.buf) && r.buf[r.off] < 0x80 {
		b := int64(r.buf[r.off])
		r.off++
		return b>>1 ^ -(b & 1), nil // zigzag
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		return 0, r.corrupt("bad varint at offset %d", r.at())
	}
	r.off += n
	return v, nil
}

// count reads an element count and bounds it by the remaining payload.
func (r *byteReader) count(what string) (int, error) {
	if r.off < len(r.buf) && int(r.buf[r.off]) < min(0x80, r.rem()) {
		r.off++
		return int(r.buf[r.off-1]), nil
	}
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(r.rem()) {
		return 0, r.corrupt("%s count %d exceeds %d remaining bytes", what, v, r.rem())
	}
	return int(v), nil
}

// intVal reads a non-negative scalar that is NOT an element count — level
// numbers, indices — so the remaining-bytes bound of count does not apply;
// only int32 overflow is rejected. Callers validate range themselves.
func (r *byteReader) intVal(what string) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt32 {
		return 0, r.corrupt("%s %d overflows int32", what, v)
	}
	return int(v), nil
}

func (r *byteReader) byte() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, r.corrupt("truncated at offset %d", r.at())
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

func (r *byteReader) float64() (float64, error) {
	if r.rem() < 8 {
		return 0, r.corrupt("truncated float at offset %d", r.at())
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v, nil
}

// int32 reads a non-negative 32-bit value (node and location ids).
func (r *byteReader) int32() (int32, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt32 {
		return 0, r.corrupt("id %d overflows int32", v)
	}
	return int32(v), nil
}

// resize returns s at length n, reusing its backing array when it holds n:
// a decode into a caller's scratch columns allocates nothing once they have
// grown to the largest graph it has seen.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// int32Column reads len(out) ids into out.
func (r *byteReader) int32Column(out []int32) error {
	for i := range out {
		var err error
		if out[i], err = r.int32(); err != nil {
			return err
		}
	}
	return nil
}

// varintColumn reads len(out) signed values into out.
func (r *byteReader) varintColumn(out []int64) error {
	for i := range out {
		var err error
		if out[i], err = r.varint(); err != nil {
			return err
		}
	}
	return nil
}

// uvarintColumn reads len(out) non-negative values into out.
func (r *byteReader) uvarintColumn(out []int64, what string) error {
	for i := range out {
		v, err := r.uvarint()
		if err != nil {
			return err
		}
		if v > math.MaxInt64 {
			return r.corrupt("%s %d overflows int64", what, v)
		}
		out[i] = int64(v)
	}
	return nil
}

// deltaPool reads a delta-coded outcome pool into pool, restarting at each
// distribution boundary: the duration distribution [lo[i], tr[i]) and the
// transition distribution [tr[i], lo[i+1]) of every owner i (see
// appendDeltaPool). Strict monotonicity within each distribution is
// enforced here, so the Multinomial rebuild cannot see duplicate outcomes.
func (r *byteReader) deltaPool(pool []int64, lo, tr []int32) error {
	for i := range tr {
		if err := r.deltaRun(pool, lo[i], tr[i]); err != nil {
			return err
		}
		if err := r.deltaRun(pool, tr[i], lo[i+1]); err != nil {
			return err
		}
	}
	return nil
}

// deltaRun reads the one distribution pool[lo:hi].
func (r *byteReader) deltaRun(pool []int64, lo, hi int32) error {
	if lo == hi {
		return nil
	}
	prev, err := r.varint()
	if err != nil {
		return err
	}
	pool[lo] = prev
	for k := lo + 1; k < hi; k++ {
		gap, err := r.uvarint()
		if err != nil {
			return err
		}
		v := prev + int64(gap)
		if v <= prev {
			return r.corrupt("outcome pool not strictly increasing at index %d", k)
		}
		pool[k] = v
		prev = v
	}
	return nil
}

// string reads a length-prefixed UTF-8 string.
func (r *byteReader) string(what string) (string, error) {
	n, err := r.count(what + " length")
	if err != nil {
		return "", err
	}
	if r.rem() < n {
		return "", r.corrupt("truncated %s at offset %d", what, r.at())
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// Save serializes the materialized cube in snapshot format v2, encoding
// cuboid sections on Config.Workers goroutines. The path database itself is
// not saved — a loaded cube answers queries from its flowgraphs but cannot
// re-mine exceptions. Output is byte-deterministic: cuboids and cells are
// written in sorted key order and section encoding is worker-count
// independent. A cuboid over a mapped section copies the bytes of every base
// cell nothing was written over straight from the mapping, so a lazily
// opened cube saves what an eager load-then-save writes while decoding only
// the cells it wrote.
func (c *Cube) Save(w io.Writer) error {
	cuboids := c.sortedCuboids()
	sections := make([][]byte, len(cuboids))
	errs := make([]error, len(cuboids))
	c.forEach(len(cuboids), func(i int) { sections[i], errs[i] = encodeCuboidV2(cuboids[i]) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return writeSnapshotV2(w, c, sections)
}

// SaveFile saves the cube to path without ever leaving a torn snapshot
// there: Save writes a temporary file in the same directory, through a
// 64 KiB buffer, which is flushed, synced, closed and renamed over path, and
// the directory is synced. On an error the file at path is as it was and
// the temporary file is gone.
func (c *Cube) SaveFile(path string) error {
	return saveFile(path, c.Save, nil)
}

// saveFileBuffer is the size of the buffer SaveFile writes through: Save
// makes a few writes per section, most of them small.
const saveFileBuffer = 64 << 10

// saveFile is SaveFile with the save that writes the snapshot, and, in
// tests, wrap: what the buffered writes pass through on their way to the
// file (nil for none), to inject a fault.
func saveFile(path string, save func(io.Writer) error, wrap func(io.Writer) io.Writer) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	var dst io.Writer = f
	if wrap != nil {
		dst = wrap(f)
	}
	w := bufio.NewWriterSize(dst, saveFileBuffer)
	err = f.Chmod(0o644)
	if err == nil {
		err = save(w)
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp) // best effort: the save's own error is the one to report
		return fmt.Errorf("core: save %s: %w", path, err)
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeSnapshotV2 writes the framed stream: the magic, the metadata sections
// encoded from the cube's decoded state, the cuboid section payloads in
// order, and the end section.
func writeSnapshotV2(w io.Writer, c *Cube, cuboids [][]byte) error {
	header, hiers, plan := encodeMetaSectionsV2(c, len(cuboids))
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
	for _, payload := range cuboids {
		if err := writeSection(w, secCuboid, payload); err != nil {
			return err
		}
	}
	return writeSection(w, secEnd, nil)
}

// encodeMetaSectionsV2 builds the header, hierarchies and plan section
// payloads from the cube's decoded state.
func encodeMetaSectionsV2(c *Cube, numCuboids int) (header, hiers, plan []byte) {
	var flags byte
	if c.Config.MineExceptions {
		flags |= headerMineExceptions
	}
	if c.compressed {
		flags |= headerCompressed
	}
	header = binary.AppendUvarint(header, formatVersionV2)
	header = binary.AppendVarint(header, c.minCount)
	header = binary.LittleEndian.AppendUint64(header, math.Float64bits(c.Config.Epsilon))
	header = binary.LittleEndian.AppendUint64(header, math.Float64bits(c.Config.Tau))
	header = append(header, flags)
	header = binary.AppendUvarint(header, uint64(len(c.Schema.Dims)))
	header = binary.AppendUvarint(header, uint64(len(c.PathLevels())))
	header = binary.AppendUvarint(header, uint64(numCuboids))

	hiers = appendHierarchyV2(hiers, c.Schema.Location)
	for _, h := range c.Schema.Dims {
		hiers = appendHierarchyV2(hiers, h)
	}

	dimLevels := c.DimLevels()
	plan = binary.AppendUvarint(plan, uint64(len(dimLevels)))
	for _, levels := range dimLevels {
		plan = binary.AppendUvarint(plan, uint64(len(levels)))
		for _, l := range levels {
			plan = binary.AppendUvarint(plan, uint64(l))
		}
	}
	pathLevels := c.PathLevels()
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

// encodeCuboidV2 encodes one cuboid section payload: the spec, the cell
// count, then every cell in CompareCells order with its flat flowgraph.
// Over a mapped section it is a merge of two sorted runs: base cells are
// copied byte-for-byte from the mapping — the whole payload when nothing
// was written over it, once its directory walk has checked it — and only
// the cells in memory are encoded.
func encodeCuboidV2(cb *Cuboid) ([]byte, error) {
	var base []byte
	if cb.base != nil {
		_, err := cb.base.dir()
		if err == nil {
			base, err = cb.base.view(0, cb.base.n)
		}
		if err != nil || len(cb.Cells) == 0 {
			return base, err
		}
	}
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(cb.Spec.Item)))
	for _, l := range cb.Spec.Item {
		buf = binary.AppendUvarint(buf, uint64(l))
	}
	buf = binary.AppendUvarint(buf, uint64(cb.Spec.PathLevel))
	buf = binary.AppendUvarint(buf, uint64(cb.len()))
	err := cb.each(func(e *dirEntry, cell *Cell) error {
		if cell == nil {
			buf = append(buf, base[e.off:e.end]...)
		} else {
			buf = appendCellV2(buf, cell)
		}
		return nil
	})
	return buf, err
}

// appendCellV2 appends one cell's snapshot encoding: values, count, flags,
// similarity, and the flat flowgraph framed by its byte length. It is the
// unit CellDigest hashes, so "byte-identical to what eager Build would have
// materialized" (the OLAP computed-cell contract) is stated against exactly
// the bytes Save writes.
func appendCellV2(buf []byte, cell *Cell) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(cell.Values)))
	for _, v := range cell.Values {
		buf = binary.AppendUvarint(buf, uint64(uint32(v)))
	}
	buf = binary.AppendVarint(buf, cell.Count)
	var flags byte
	if cell.Redundant {
		flags |= 1
	}
	if cell.Graph != nil {
		flags |= 2
	}
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(cell.Similarity))
	if cell.Graph != nil {
		buf = appendCellGraph(buf, cell.Graph.Columns())
	}
	return buf
}

// appendHierarchyV2 encodes one hierarchy: dimension name, then nodes 1..n
// (the root is implicit) as names followed by parent ids.
func appendHierarchyV2(buf []byte, h *hierarchy.Hierarchy) []byte {
	buf = appendString(buf, h.Dimension())
	n := h.Len() - 1
	buf = binary.AppendUvarint(buf, uint64(n))
	for id := hierarchy.NodeID(1); int(id) <= n; id++ {
		buf = appendString(buf, h.Name(id))
	}
	for id := hierarchy.NodeID(1); int(id) <= n; id++ {
		buf = binary.AppendUvarint(buf, uint64(uint32(h.Parent(id))))
	}
	return buf
}

// writeSection frames one section: kind, payload length, payload, CRC-32C.
func writeSection(w io.Writer, kind byte, payload []byte) error {
	hdr := make([]byte, 0, 1+binary.MaxVarintLen64)
	hdr = append(hdr, kind)
	hdr = binary.AppendUvarint(hdr, uint64(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(payload, snapshotCRCTable))
	_, err := w.Write(crc[:])
	return err
}

// Load reconstructs a cube saved with Save. The result supports Cell,
// Answer, MarkRedundancy and Compress; Mining statistics and the
// ability to re-mine exceptions are gone with the path database.
func Load(r io.Reader) (*Cube, error) {
	return LoadContext(context.Background(), r)
}

// LoadContext is Load with cancellation: ctx is checked before every read
// from r and before each cuboid section decodes, so loading a large
// snapshot from a slow reader can be abandoned without decoding the rest.
//
// It is the one snapshot reader LoadCubeLazy uses, over r read into memory:
// the open validates the framing, then every section's cells decode into
// Cells, in parallel across sections, and the cube drops its base and
// backend. A corrupt cell fails here, not at first touch.
func LoadContext(ctx context.Context, r io.Reader) (*Cube, error) {
	cube, err := openLazy(newMemData(ctx, r, sizeHint(r)), LazyOptions{})
	if err != nil {
		return nil, err
	}
	defer cube.lazy.close() //nolint:errcheck // an in-memory source has nothing to release
	cuboids := cube.sortedCuboids()
	errs := make([]error, len(cuboids))
	forEach(runtime.GOMAXPROCS(0), len(cuboids), func(i int) {
		cb := cuboids[i]
		if errs[i] = ctx.Err(); errs[i] == nil {
			cb.Cells, errs[i] = cb.base.decodeAll()
		}
		cb.base = nil
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	cube.lazy, cube.gen = nil, 0
	return cube, nil
}

// frameCorrupt reports a violation of the outer section framing.
func frameCorrupt(format string, args ...any) error {
	return (&byteReader{section: "frame"}).corrupt(format, args...)
}

// headerV2 is the decoded header section: thresholds and flags plus the
// census of the other sections. The counts are a census of *other*
// sections, so the byteReader's remaining-bytes bound does not apply to
// them; each is re-bounded against the section that actually carries the
// elements before anything is allocated from it.
type headerV2 struct {
	minCount      int64
	epsilon       float64
	tau           float64
	flags         byte
	numDims       uint64
	numPathLevels uint64
	numCuboids    uint64
}

// decodeHeaderV2 decodes a secHeader payload.
func decodeHeaderV2(payload []byte) (headerV2, error) {
	hr := &byteReader{section: "header", buf: payload}
	var h headerV2
	version, err := hr.uvarint()
	if err != nil {
		return h, err
	}
	if version != formatVersionV2 {
		return h, hr.corrupt("format version %d not supported (have %d); snapshots of other versions "+
			"must be rebuilt from the path database (flowquery -in x.fdb -save x.fcb)", version, formatVersionV2)
	}
	if h.minCount, err = hr.varint(); err != nil {
		return h, err
	}
	if h.epsilon, err = hr.float64(); err != nil {
		return h, err
	}
	if h.tau, err = hr.float64(); err != nil {
		return h, err
	}
	if h.flags, err = hr.byte(); err != nil {
		return h, err
	}
	if h.flags&^(headerMineExceptions|headerCompressed) != 0 {
		return h, hr.corrupt("unknown header flags %#x", h.flags)
	}
	if h.numDims, err = hr.uvarint(); err != nil {
		return h, err
	}
	if h.numPathLevels, err = hr.uvarint(); err != nil {
		return h, err
	}
	if h.numCuboids, err = hr.uvarint(); err != nil {
		return h, err
	}
	return h, nil
}

// decodeHierarchiesV2 decodes a secHierarchies payload into the schema:
// the location hierarchy followed by numDims item dimensions.
func decodeHierarchiesV2(payload []byte, numDims uint64) (*pathdb.Schema, error) {
	gr := &byteReader{section: "hierarchies", buf: payload}
	// Every hierarchy costs at least one byte in this section, so the
	// header's dimension census cannot honestly exceed its payload.
	if numDims > uint64(len(payload)) {
		return nil, gr.corrupt("dimension count %d exceeds the %d-byte hierarchies section", numDims, len(payload))
	}
	location, err := decodeHierarchyV2(gr)
	if err != nil {
		return nil, err
	}
	dims := make([]*hierarchy.Hierarchy, int(numDims))
	for i := range dims {
		if dims[i], err = decodeHierarchyV2(gr); err != nil {
			return nil, err
		}
	}
	return pathdb.NewSchema(location, dims...)
}

// decodePlanV2 decodes a secPlan payload against an already-decoded schema,
// cross-checking the header census.
func decodePlanV2(payload []byte, schema *pathdb.Schema, h headerV2) (transact.Plan, error) {
	pr := &byteReader{section: "plan", buf: payload}
	nd, err := pr.count("plan dimension")
	if err != nil {
		return transact.Plan{}, err
	}
	if uint64(nd) != h.numDims {
		return transact.Plan{}, pr.corrupt("plan lists %d dimensions, header %d", nd, h.numDims)
	}
	dimLevels := make([][]int, nd)
	for d := range dimLevels {
		nl, err := pr.count("dimension level")
		if err != nil {
			return transact.Plan{}, err
		}
		dimLevels[d] = make([]int, nl)
		for i := range dimLevels[d] {
			l, err := pr.intVal("level")
			if err != nil {
				return transact.Plan{}, err
			}
			dimLevels[d][i] = l
		}
	}
	npl, err := pr.count("plan path level")
	if err != nil {
		return transact.Plan{}, err
	}
	if uint64(npl) != h.numPathLevels {
		return transact.Plan{}, pr.corrupt("plan lists %d path levels, header %d", npl, h.numPathLevels)
	}
	if npl == 0 {
		return transact.Plan{}, pr.corrupt("plan lists no path level")
	}
	levels := make([]pathdb.PathLevel, npl)
	for i := range levels {
		nn, err := pr.count("cut node")
		if err != nil {
			return transact.Plan{}, err
		}
		nodes := make([]hierarchy.NodeID, nn)
		for j := range nodes {
			id, err := pr.int32()
			if err != nil {
				return transact.Plan{}, err
			}
			nodes[j] = hierarchy.NodeID(id)
		}
		cut, err := hierarchy.NewCut(schema.Location, nodes)
		if err != nil {
			return transact.Plan{}, err
		}
		anyB, err := pr.byte()
		if err != nil {
			return transact.Plan{}, err
		}
		grain, err := pr.varint()
		if err != nil {
			return transact.Plan{}, err
		}
		levels[i] = pathdb.PathLevel{Cut: cut, Time: pathdb.TimeLevel{Grain: grain, Any: anyB != 0}}
	}
	return transact.Plan{DimLevels: dimLevels, PathLevels: levels}, nil
}

// openSnapshot checks the magic and decodes the preamble — the header,
// hierarchies and plan sections, everything a stateless query router needs
// (see LoadMeta and internal/cluster). It returns the cube they describe,
// with no cuboids yet, the header's census of the sections after them, and
// the frame reader at the first of those: openLazy reads on, LoadMeta stops.
func openSnapshot(data snapData) (*Cube, headerV2, *frameReader, error) {
	var h headerV2
	head, err := data.view(0, int64(len(magicV2)))
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, h, nil, err
	}
	if err := CheckMagic(head); err != nil {
		return nil, h, nil, err
	}
	frames := &frameReader{data: data, off: int64(len(magicV2))}
	section := func(kind byte, ordinal, name string) ([]byte, error) {
		got, payload, err := frames.next()
		if err != nil {
			return nil, err
		}
		if got != kind {
			return nil, (&byteReader{section: name}).corrupt("%s section has kind %d, want %s", ordinal, got, name)
		}
		return payload, nil
	}
	payload, err := section(secHeader, "first", "header")
	if err == nil {
		h, err = decodeHeaderV2(payload)
	}
	if err != nil {
		return nil, h, nil, err
	}
	if payload, err = section(secHierarchies, "second", "hierarchies"); err != nil {
		return nil, h, nil, err
	}
	schema, err := decodeHierarchiesV2(payload, h.numDims)
	if err != nil {
		return nil, h, nil, err
	}
	if payload, err = section(secPlan, "third", "plan"); err != nil {
		return nil, h, nil, err
	}
	plan, err := decodePlanV2(payload, schema, h)
	if err != nil {
		return nil, h, nil, err
	}
	plan.DimLevels = plan.NormalizedDimLevels(schema)
	return &Cube{
		Schema: schema,
		Config: Config{MinCount: h.minCount, Epsilon: h.epsilon, Tau: h.tau, Plan: plan,
			MineExceptions: h.flags&headerMineExceptions != 0},
		Cuboids:    make(map[string]*Cuboid),
		minCount:   h.minCount,
		compressed: h.flags&headerCompressed != 0,
	}, h, frames, nil
}

// decodeCuboidHeaderV2 decodes the fixed prefix of a cuboid section — the
// spec and the cell count — leaving r positioned at the first cell. The lazy
// open path reads just this much per section to build its key-routed index
// without decoding any cells.
func decodeCuboidHeaderV2(r *byteReader, levels []pathdb.PathLevel) (CuboidSpec, int, error) {
	ni, err := r.count("item level")
	if err != nil {
		return CuboidSpec{}, 0, err
	}
	item := make(ItemLevel, ni)
	for i := range item {
		l, err := r.intVal("item level value")
		if err != nil {
			return CuboidSpec{}, 0, err
		}
		item[i] = l
	}
	pl, err := r.intVal("path level")
	if err != nil {
		return CuboidSpec{}, 0, err
	}
	if pl >= len(levels) {
		return CuboidSpec{}, 0, r.corrupt("path level %d out of range (%d levels)", pl, len(levels))
	}
	spec := CuboidSpec{Item: item, PathLevel: pl}
	r.section = "cuboid " + spec.Key()
	numCells, err := r.count("cell")
	if err != nil {
		return CuboidSpec{}, 0, err
	}
	return spec, numCells, nil
}

// decodeCellPrefixV2 decodes the fixed prefix of one cell — values, count,
// flags, similarity — leaving r positioned at the flat graph's length when
// flags&2 is set. Shared between the full decoder and the lazy flat scans.
func decodeCellPrefixV2(r *byteReader) (values []hierarchy.NodeID, count int64, flags byte, similarity float64, err error) {
	nv, err := r.count("cell value")
	if err != nil {
		return nil, 0, 0, 0, err
	}
	values = make([]hierarchy.NodeID, nv)
	for i := range values {
		id, err := r.int32()
		if err != nil {
			return nil, 0, 0, 0, err
		}
		values[i] = hierarchy.NodeID(id)
	}
	if count, err = r.varint(); err != nil {
		return nil, 0, 0, 0, err
	}
	if flags, err = r.byte(); err != nil {
		return nil, 0, 0, 0, err
	}
	if similarity, err = r.float64(); err != nil {
		return nil, 0, 0, 0, err
	}
	return values, count, flags, similarity, nil
}

// minCellBytesV2 is the least one encoded cell occupies: a value count, a
// path count, the flags byte and the similarity. It bounds what a section's
// claimed cell count may pre-allocate.
const minCellBytesV2 = 11

// decodeCellV2 is the one cell decoder: it decodes the cell r is positioned
// at — prefix, framed flat graph (decodeCellGraph), Unflatten into a graph on the decoded
// columns at the cuboid's path level — and leaves r at the next cell. Load walks it over every section
// (lazySection.decodeAll); a lazy cube aims it at one directory entry.
// The second result is the decoded cell's cost against the lazy cache's
// budget (cellBaseFootprint, flatFootprint), which grows with the decoded
// graph rather than with its much smaller encoded payload.
func decodeCellV2(r *byteReader, loc *hierarchy.Hierarchy, level pathdb.PathLevel) (*Cell, int64, error) {
	values, count, flags, similarity, err := decodeCellPrefixV2(r)
	if err != nil {
		return nil, 0, err
	}
	cell := &Cell{
		Values:     values,
		Count:      count,
		Redundant:  flags&1 != 0,
		Similarity: similarity,
	}
	footprint := cellBaseFootprint + int64(len(values))*8
	if flags&2 != 0 {
		flat := &flowgraph.Flat{}
		if err := decodeCellGraph(r, flat); err != nil {
			return nil, 0, err
		}
		footprint += flatFootprint(flat)
		if cell.Graph, err = flowgraph.Unflatten(loc, level, flat); err != nil {
			return nil, 0, r.corrupt("cell %s: %v", formatCell(values), err)
		}
	}
	return cell, footprint, nil
}

// Decoded-footprint model: what each decoded object costs against the lazy
// cache's budget (LazyOptions.CacheBytes), in the budget's units. The
// values were once rough heap costs of a pointer-form graph, of 176-byte
// nodes and map-backed distributions; a decoded cell now rests as its
// columns, several times smaller, so they no longer track the allocator,
// and they stay as they are because budgets — and the eviction a given
// budget makes — are stated in them.
const (
	cellBaseFootprint = 160 // per cell, beside 8 per value
	nodeFootprint     = 176 // per flowgraph node
	distFootprint     = 64  // per distribution, two per node and per exception
	outcomeFootprint  = 52  // per distribution outcome, transitions' too
	pinFootprint      = 40  // per exception pin
	excFootprint      = 128 // per exception
)

// flatFootprint is what one decoded flat graph costs against the lazy
// cache's budget: what its tree would cost in the model, although the cell
// rests as the columns. It counts each node's transition outcomes, one per
// child and one where some path ends (Flat.Ends), although no graph stores
// them, so that a given budget evicts what it always has.
func flatFootprint(f *flowgraph.Flat) int64 {
	n := int64(f.NumNodes())
	m := int64(len(f.ExcNode))
	transitions := n - 1
	for i := 1; i < f.NumNodes(); i++ {
		if f.Ends(i) > 0 {
			transitions++
		}
	}
	return n*nodeFootprint +
		2*(n+m)*distFootprint +
		(int64(len(f.Outcomes)+len(f.ExcOutcomes))+transitions)*outcomeFootprint +
		int64(len(f.PinDepth))*pinFootprint +
		m*excFootprint
}

// decodeHierarchyV2 reads one hierarchy written by appendHierarchyV2.
func decodeHierarchyV2(r *byteReader) (*hierarchy.Hierarchy, error) {
	dim, err := r.string("dimension name")
	if err != nil {
		return nil, err
	}
	n, err := r.count("hierarchy node")
	if err != nil {
		return nil, err
	}
	names := make([]string, n)
	for i := range names {
		if names[i], err = r.string("concept name"); err != nil {
			return nil, err
		}
	}
	h := hierarchy.New(dim)
	for _, name := range names {
		p, err := r.int32()
		if err != nil {
			return nil, err
		}
		if int(p) >= h.Len() {
			return nil, r.corrupt("hierarchy %q: node %q references later parent %d", dim, name, p)
		}
		if _, err := h.Add(h.Name(hierarchy.NodeID(p)), name); err != nil {
			return nil, r.corrupt("hierarchy %q: %v", dim, err)
		}
	}
	return h, nil
}
