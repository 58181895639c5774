package core

// Binary encoding of flowgraph.Flat, the columnar flowgraph layout inside
// v2 snapshot cuboid sections. Everything is varint-coded except float bits
// (fixed 8-byte little-endian IEEE, so deviations round-trip exactly).
// Outcome pools are delta-coded per distribution: outcomes are strictly
// increasing within one distribution, so each value after the first is
// stored as its positive gap from the previous one, which keeps duration
// outcomes (small, clustered integers) to one or two bytes each.
//
// A node's only distribution on the wire is its duration distribution: its
// transition distribution is its children's counts and the paths that end
// at it, which the node columns already carry.
//
// The decoder never trusts a claimed count: every element of every column
// occupies at least one encoded byte, so counts are bounded by the bytes
// remaining in the section before any column is allocated (byteReader.count).
// Structural validity of the decoded columns — child ranges, offset
// monotonicity, node references, counts — is flowgraph.Flat.Check's job,
// which Unflatten runs first.

import (
	"encoding/binary"
	"math"
	"slices"

	"flowcube/internal/flowgraph"
)

// appendCellGraph appends a cell's columnar graph framed by its byte length
// (a uvarint before it), so a walk over a section's cells steps over a graph
// without parsing it.
func appendCellGraph(buf []byte, f *flowgraph.Flat) []byte {
	start := len(buf)
	buf = appendFlatGraph(buf, f)
	var n [binary.MaxVarintLen64]byte
	return slices.Insert(buf, start, n[:binary.PutUvarint(n[:], uint64(len(buf)-start))]...)
}

// appendFlatGraph appends the columnar graph to buf.
func appendFlatGraph(buf []byte, f *flowgraph.Flat) []byte {
	n := f.NumNodes()
	buf = binary.AppendVarint(buf, f.Paths)
	buf = binary.AppendUvarint(buf, uint64(n))
	for _, l := range f.Locations {
		buf = binary.AppendUvarint(buf, uint64(uint32(l)))
	}
	for _, c := range f.Counts {
		buf = binary.AppendVarint(buf, c)
	}
	for i := 0; i < n; i++ {
		buf = binary.AppendUvarint(buf, uint64(f.ChildLo[i+1]-f.ChildLo[i]))
	}
	for i := 0; i < n; i++ {
		buf = binary.AppendUvarint(buf, uint64(f.DurLo[i+1]-f.DurLo[i]))
	}
	for i := 0; i < n; i++ {
		buf = appendDeltaRun(buf, f.Outcomes[f.DurLo[i]:f.DurLo[i+1]])
	}
	for _, w := range f.Weights {
		buf = binary.AppendUvarint(buf, uint64(w))
	}

	m := len(f.ExcNode)
	buf = binary.AppendUvarint(buf, uint64(m))
	for j := 0; j < m; j++ {
		buf = binary.AppendUvarint(buf, uint64(uint32(f.ExcNode[j])))
		buf = binary.AppendVarint(buf, f.ExcSupport[j])
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f.ExcDurDev[j]))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f.ExcTrDev[j]))
		buf = binary.AppendUvarint(buf, uint64(f.ExcPinLo[j+1]-f.ExcPinLo[j]))
		buf = binary.AppendUvarint(buf, uint64(f.ExcTrLo[j]-f.ExcDurLo[j]))
		buf = binary.AppendUvarint(buf, uint64(f.ExcDurLo[j+1]-f.ExcTrLo[j]))
	}
	for i := range f.PinDepth {
		buf = binary.AppendVarint(buf, int64(f.PinDepth[i]))
		buf = binary.AppendUvarint(buf, uint64(uint32(f.PinLoc[i])))
		buf = binary.AppendVarint(buf, f.PinDur[i])
		if f.PinDurAny[i] {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	buf = appendDeltaPool(buf, f.ExcOutcomes, f.ExcDurLo, f.ExcTrLo)
	for _, w := range f.ExcWeights {
		buf = binary.AppendUvarint(buf, uint64(w))
	}
	return buf
}

// appendDeltaPool delta-codes the pooled outcome column, restarting at each
// distribution boundary — the duration distribution [lo[i], tr[i]) and the
// transition distribution [tr[i], lo[i+1]) of every owner i.
func appendDeltaPool(buf []byte, pool []int64, lo, tr []int32) []byte {
	for i := range tr {
		buf = appendDeltaRun(buf, pool[lo[i]:tr[i]])
		buf = appendDeltaRun(buf, pool[tr[i]:lo[i+1]])
	}
	return buf
}

// appendDeltaRun codes one distribution's outcomes: the first as a zigzag
// varint, the rest as their positive gaps.
func appendDeltaRun(buf []byte, run []int64) []byte {
	if len(run) == 0 {
		return buf
	}
	buf = binary.AppendVarint(buf, run[0])
	for k := 1; k < len(run); k++ {
		buf = binary.AppendUvarint(buf, uint64(run[k]-run[k-1]))
	}
	return buf
}

// decodeCellGraph decodes the length-framed graph r is positioned at into f
// (decodeFlatGraph) and leaves r past it. The graph's reader shares r's
// buffer up to the declared end, so no column reads past it and error
// offsets are r's, and a graph that ends before the declared end is
// corrupt too.
func decodeCellGraph(r *byteReader, f *flowgraph.Flat) error {
	end, err := r.graphEnd()
	if err != nil {
		return err
	}
	g := *r
	g.buf = r.buf[:end]
	if err := decodeFlatGraph(&g, f); err != nil {
		return err
	}
	if g.off != end {
		return g.corrupt("flowgraph ends at offset %d, not at %d where its length says", g.at(), g.base+end)
	}
	r.off = end
	return nil
}

// graphEnd reads a cell's flowgraph length and returns the offset where the
// graph ends, bounded by the bytes remaining.
func (r *byteReader) graphEnd() (int, error) {
	n, err := r.count("flowgraph byte")
	if err != nil {
		return 0, err
	}
	return r.off + n, nil
}

// decodeFlatGraph reads one columnar graph from r into f, reusing the
// capacity of f's columns: the eager decoders pass a fresh Flat, and a
// verify walk passes one scratch Flat per worker, so once its columns have
// grown it decodes without allocating. f is only decoded here; Check (or
// Unflatten, which runs it) is what proves it structurally valid.
func decodeFlatGraph(r *byteReader, f *flowgraph.Flat) error {
	var err error
	if f.Paths, err = r.varint(); err != nil {
		return err
	}
	n, err := r.count("node")
	if err != nil {
		return err
	}
	if n < 1 {
		return r.corrupt("flat graph has no root node")
	}
	f.Locations = resize(f.Locations, n)
	if err := r.int32Column(f.Locations); err != nil {
		return err
	}
	f.Counts = resize(f.Counts, n)
	if err := r.varintColumn(f.Counts); err != nil {
		return err
	}
	f.ChildLo = resize(f.ChildLo, n+1)
	f.ChildLo[0] = 1
	childTotal := 1
	for i := 0; i < n; i++ {
		kids, err := r.count("child")
		if err != nil {
			return err
		}
		childTotal += kids
		if childTotal > n {
			return r.corrupt("child ranges exceed node count")
		}
		f.ChildLo[i+1] = int32(childTotal)
	}
	if err := decodeNodeDists(r, f); err != nil {
		return err
	}

	m, err := r.count("exception")
	if err != nil {
		return err
	}
	// Exception-free graphs leave every exception column empty (a fresh
	// Flat's stay nil).
	f.ExcNode = resize(f.ExcNode, m)
	f.ExcSupport = resize(f.ExcSupport, m)
	f.ExcDurDev = resize(f.ExcDurDev, m)
	f.ExcTrDev = resize(f.ExcTrDev, m)
	f.ExcTrLo = resize(f.ExcTrLo, m)
	if m == 0 {
		f.ExcPinLo, f.ExcDurLo = f.ExcPinLo[:0], f.ExcDurLo[:0]
		f.PinDepth, f.PinLoc, f.PinDur, f.PinDurAny = f.PinDepth[:0], f.PinLoc[:0], f.PinDur[:0], f.PinDurAny[:0]
		f.ExcOutcomes, f.ExcWeights = f.ExcOutcomes[:0], f.ExcWeights[:0]
		return nil
	}
	f.ExcPinLo = resize(f.ExcPinLo, m+1)
	f.ExcDurLo = resize(f.ExcDurLo, m+1)
	pinTotal, excTotal := 0, 0
	for j := 0; j < m; j++ {
		if f.ExcNode[j], err = r.int32(); err != nil {
			return err
		}
		if f.ExcSupport[j], err = r.varint(); err != nil {
			return err
		}
		if f.ExcDurDev[j], err = r.float64(); err != nil {
			return err
		}
		if f.ExcTrDev[j], err = r.float64(); err != nil {
			return err
		}
		pins, err := r.count("pin")
		if err != nil {
			return err
		}
		durLen, err := r.count("exception duration outcome")
		if err != nil {
			return err
		}
		trLen, err := r.count("exception transition outcome")
		if err != nil {
			return err
		}
		f.ExcPinLo[j] = int32(pinTotal)
		f.ExcDurLo[j] = int32(excTotal)
		f.ExcTrLo[j] = int32(excTotal + durLen)
		pinTotal += pins
		excTotal += durLen + trLen
		if pinTotal > r.rem() || excTotal > r.rem() {
			return r.corrupt("exception pools larger than remaining section")
		}
	}
	f.ExcPinLo[m] = int32(pinTotal)
	f.ExcDurLo[m] = int32(excTotal)
	f.PinDepth = resize(f.PinDepth, pinTotal)
	f.PinLoc = resize(f.PinLoc, pinTotal)
	f.PinDur = resize(f.PinDur, pinTotal)
	f.PinDurAny = resize(f.PinDurAny, pinTotal)
	for i := 0; i < pinTotal; i++ {
		depth, err := r.varint()
		if err != nil {
			return err
		}
		if depth < math.MinInt32 || depth > math.MaxInt32 {
			return r.corrupt("pin depth %d overflows int32", depth)
		}
		f.PinDepth[i] = int32(depth)
		if f.PinLoc[i], err = r.int32(); err != nil {
			return err
		}
		if f.PinDur[i], err = r.varint(); err != nil {
			return err
		}
		b, err := r.byte()
		if err != nil {
			return err
		}
		f.PinDurAny[i] = b != 0
	}
	f.ExcOutcomes = resize(f.ExcOutcomes, excTotal)
	if err := r.deltaPool(f.ExcOutcomes, f.ExcDurLo, f.ExcTrLo); err != nil {
		return err
	}
	f.ExcWeights = resize(f.ExcWeights, excTotal)
	return r.uvarintColumn(f.ExcWeights, "exception weight")
}

// decodeNodeDists reads every node's duration distribution into f's pooled
// columns: the lengths, then the delta-coded outcomes, then the weights.
func decodeNodeDists(r *byteReader, f *flowgraph.Flat) error {
	n := f.NumNodes()
	f.DurLo = resize(f.DurLo, n+1)
	total := 0
	for i := 0; i < n; i++ {
		k, err := r.count("duration outcome")
		if err != nil {
			return err
		}
		f.DurLo[i] = int32(total)
		if total += k; total > r.rem() {
			return r.corrupt("distribution pool larger than remaining section")
		}
	}
	f.DurLo[n] = int32(total)
	f.Outcomes = resize(f.Outcomes, total)
	for i := 0; i < n; i++ {
		if err := r.deltaRun(f.Outcomes, f.DurLo[i], f.DurLo[i+1]); err != nil {
			return err
		}
	}
	f.Weights = resize(f.Weights, total)
	return r.uvarintColumn(f.Weights, "weight")
}
