package core

// Binary encoding of flowgraph.Flat, the columnar flowgraph layout inside
// v2 snapshot cuboid sections. Everything is varint-coded except float bits
// (fixed 8-byte little-endian IEEE, so deviations round-trip exactly).
// Outcome pools are delta-coded per distribution: outcomes are strictly
// increasing within one distribution, so each value after the first is
// stored as its positive gap from the previous one, which keeps duration
// outcomes (small, clustered integers) to one or two bytes each.
//
// Each node's transition distribution is written beside its duration
// distribution, although no Flat keeps it: it is the children's counts and
// the paths that end at the node (flowgraph.Transitions). The encoder
// derives it, and the decoder checks it against the children as it reads
// it and drops it.
//
// The decoder never trusts a claimed count: every element of every column
// occupies at least one encoded byte, so counts are bounded by the bytes
// remaining in the section before any column is allocated (byteReader.count).
// Structural validity of the decoded columns — child ranges, offset
// monotonicity, node references — is flowgraph.Flat.Check's job, which
// Unflatten runs first.

import (
	"encoding/binary"
	"math"
	"sync"

	"flowcube/internal/flowgraph"
)

// transitionScratch holds the transition columns the encoder derives, so
// that it allocates none per graph once the pool's columns have grown: no
// graph keeps its transition column, and the snapshot carries it only for
// the format's sake (flowgraph.Transitions).
var transitionScratch = sync.Pool{New: func() any { return new(flowgraph.Transitions) }}

// appendFlatGraph appends the columnar graph to buf, with the transition
// column it derives.
func appendFlatGraph(buf []byte, f *flowgraph.Flat) []byte {
	t := transitionScratch.Get().(*flowgraph.Transitions)
	f.DeriveTransitions(t)
	buf = appendFlatWire(buf, f, t)
	transitionScratch.Put(t)
	return buf
}

// appendFlatWire appends the columnar graph to buf with t as its transition
// column: each node's duration and transition distributions side by side,
// as the format lays them out.
func appendFlatWire(buf []byte, f *flowgraph.Flat, t *flowgraph.Transitions) []byte {
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
		buf = binary.AppendUvarint(buf, uint64(t.Lo[i+1]-t.Lo[i]))
	}
	for i := 0; i < n; i++ {
		buf = appendDeltaRun(buf, f.Outcomes[f.DurLo[i]:f.DurLo[i+1]])
		buf = appendDeltaRun(buf, t.Outcomes[t.Lo[i]:t.Lo[i+1]])
	}
	for i := 0; i < n; i++ {
		for _, w := range f.Weights[f.DurLo[i]:f.DurLo[i+1]] {
			buf = binary.AppendUvarint(buf, uint64(w))
		}
		for _, w := range t.Weights[t.Lo[i]:t.Lo[i+1]] {
			buf = binary.AppendUvarint(buf, uint64(w))
		}
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

// decodeFlatGraph reads one columnar graph from r into f, reusing the
// capacity of f's columns: the eager decoders pass a fresh Flat, and a
// verify walk passes one scratch Flat per worker, so once its columns have
// grown it decodes without allocating. The transition column is checked as
// it is read against the columns it must derive from, and dropped;
// otherwise f is only decoded here, and Check (or Unflatten, which runs it)
// is what proves it structurally valid.
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

// termScratch holds, per node, whether decodeNodeDists found a Terminate
// outcome in its transition distribution, so that a decode allocates
// nothing once it has grown.
var termScratch = sync.Pool{New: func() any { return new([]bool) }}

// decodeNodeDists reads every node's distributions, keeps its duration
// distribution in f's pooled columns, and checks its transition
// distribution against what f's counts derive (flowgraph.Transitions),
// keeping none of it: a column that said anything else would be silently
// replaced by the derived one. The column must hold, in this order, a
// Terminate outcome with a positive weight or none (none at the root), and
// each child's location with the child's count, and its weights must add
// up to the node's count — at the root, to Paths.
//
// The format writes every distribution's outcomes, then every weight; the
// decoder reads them a node at a time with two cursors, r over the
// outcomes and w over the weights, which it finds by skipping the outcomes.
func decodeNodeDists(r *byteReader, f *flowgraph.Flat) error {
	n := f.NumNodes()
	scratch := termScratch.Get().(*[]bool)
	defer termScratch.Put(scratch)
	term := resize(*scratch, n)
	*scratch = term
	locs, counts, childLo := f.Locations, f.Counts, f.ChildLo
	durLo := resize(f.DurLo, n+1)
	f.DurLo = durLo
	total, durs := 0, 0
	for i := 0; i < n; i++ {
		durLen, err := r.count("duration outcome")
		if err != nil {
			return err
		}
		trLen, err := r.count("transition outcome")
		if err != nil {
			return err
		}
		extra := trLen - int(childLo[i+1]-childLo[i])
		if extra != 0 && extra != 1 {
			return r.corrupt("node %d transition column has %d outcomes for %d children", i, trLen, childLo[i+1]-childLo[i])
		}
		term[i] = extra == 1
		durLo[i] = int32(durs)
		durs += durLen
		total += durLen + trLen
		if total > r.rem() {
			return r.corrupt("distribution pool larger than remaining section")
		}
	}
	durLo[n] = int32(durs)
	outcomes, weights := resize(f.Outcomes, durs), resize(f.Weights, durs)
	f.Outcomes, f.Weights = outcomes, weights

	w := *r
	if err := w.skipVarints(total, "distribution outcomes"); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		// The duration distribution: strictly ascending outcomes, the first
		// zigzag-coded and the rest as gaps, each with its weight.
		var prev int64
		for k, lo := durLo[i], durLo[i]; k < durLo[i+1]; k++ {
			var v int64
			if k == lo {
				x, err := r.varint()
				if err != nil {
					return err
				}
				v = x
			} else {
				gap, err := r.uvarint()
				if err != nil {
					return err
				}
				if v = prev + int64(gap); v <= prev {
					return r.corrupt("outcome pool not strictly increasing at index %d", k)
				}
			}
			c, err := w.uvarint()
			if err != nil {
				return err
			}
			if c > math.MaxInt64 {
				return r.corrupt("weight %d overflows int64", c)
			}
			outcomes[k], weights[k], prev = v, int64(c), v
		}

		// The transition distribution, coded the same way: Terminate first
		// when paths end at the node, then its children.
		var sum int64
		first := true
		if term[i] {
			v, err := r.varint()
			if err != nil {
				return err
			}
			c, err := w.uvarint()
			if err != nil {
				return err
			}
			if v != flowgraph.Terminate || c == 0 || c > math.MaxInt64 || i == 0 {
				return r.corrupt("node %d transition column has a Terminate no path derives", i)
			}
			sum, prev, first = int64(c), v, false
		}
		for j := childLo[i]; j < childLo[i+1]; j++ {
			var v int64
			if first {
				x, err := r.varint()
				if err != nil {
					return err
				}
				v, first = x, false
			} else {
				gap, err := r.uvarint()
				if err != nil {
					return err
				}
				v = prev + int64(gap)
			}
			c, err := w.uvarint()
			if err != nil {
				return err
			}
			if v != int64(locs[j]) || c != uint64(counts[j]) {
				return r.corrupt("node %d transition column differs from its children's counts", i)
			}
			sum += counts[j]
			prev = v
		}
		total := counts[i]
		if i == 0 {
			total = f.Paths
		}
		if sum != total {
			return r.corrupt("node %d transition column does not add up to its %d paths", i, total)
		}
	}
	r.off = w.off
	return nil
}

// skipFlatGraph advances r past one encoded flat graph without allocating
// any of its columns. The lazy loader's flat scans (cuboid summaries, cell
// sortedness checks) use it to walk a cuboid section's cells touching only
// the per-cell prefixes. Varint pools can be skipped by value count alone —
// the delta restarts change which values are zigzag-coded, not how many
// byte groups there are — so only the length headers are decoded, with the
// same remaining-bytes bounds as the full decoder. A graph that skips clean
// can still fail the full decode (pool monotonicity, Unflatten structure);
// the point here is cheap traversal, not validation.
func skipFlatGraph(r *byteReader) error {
	if err := r.skipVarints(1, "path count"); err != nil {
		return err
	}
	n, err := r.count("node")
	if err != nil {
		return err
	}
	if n < 1 {
		return r.corrupt("flat graph has no root node")
	}
	// Locations, counts, child-range widths: three varints per node.
	if err := r.skipVarints(3*n, "node columns"); err != nil {
		return err
	}
	total := 0
	for i := 0; i < n; i++ {
		durLen, err := r.count("duration outcome")
		if err != nil {
			return err
		}
		trLen, err := r.count("transition outcome")
		if err != nil {
			return err
		}
		total += durLen + trLen
		if total > r.rem() {
			return r.corrupt("distribution pool larger than remaining section")
		}
	}
	// Outcome pool and weight column: one varint group per value each.
	if err := r.skipVarints(2*total, "distribution pools"); err != nil {
		return err
	}

	m, err := r.count("exception")
	if err != nil {
		return err
	}
	if m == 0 {
		return nil
	}
	pinTotal, excTotal := 0, 0
	for j := 0; j < m; j++ {
		if err := r.skipVarints(2, "exception header"); err != nil {
			return err
		}
		if err := r.skipBytes(16, "exception deviations"); err != nil {
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
		pinTotal += pins
		excTotal += durLen + trLen
		if pinTotal > r.rem() || excTotal > r.rem() {
			return r.corrupt("exception pools larger than remaining section")
		}
	}
	for i := 0; i < pinTotal; i++ {
		if err := r.skipVarints(3, "pin"); err != nil {
			return err
		}
		if err := r.skipBytes(1, "pin flag"); err != nil {
			return err
		}
	}
	return r.skipVarints(2*excTotal, "exception pools")
}
