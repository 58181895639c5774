package flowgraph

import (
	"encoding/binary"
	"slices"
	"sort"
	"strings"

	"flowcube/internal/hierarchy"
	"flowcube/internal/pathdb"
	"flowcube/internal/stats"
)

// Exception mining (paper §3, step 3 of flowgraph computation).
//
// Because the flowgraph is a prefix tree, a node's general distributions
// are already conditioned on the *locations* of its prefix; what exceptions
// add is conditioning on the *durations* spent at earlier stages — the
// paper's examples: "the transition probability from the truck to the
// warehouse ... is in general 33%, but that probability is 50% when we stay
// for just 1 hour at the truck", and the distribution-of-durations change
// given 5 hours at the factory.
//
// MineExceptions checks the conditions it is given — the frequent path
// segments of the cell, which the Shared algorithm produces — in one scan of
// the paths. A single stage's duration needs no scan of its own: a stage
// whose (prefix, duration) reaches δ within a cell is a frequent {cell
// dimensions, stage} itemset, so the segments already hold it as a one-pin
// condition.
//
// The same scan re-mines after paths are added. Every aggregate behind an
// exception — its support, its conditional distributions and its target's
// general ones — depends only on the paths through the target, so new paths
// can change only the exceptions at nodes they run through (moved nodes).
// Those targets are re-aggregated and every other exception is carried over
// from the graph the new paths were folded into.
//
// The miner reads and writes columns: a path's stages resolve to node
// indices through the child ranges, the aggregates are kept per (condition,
// node index), and the exception table is laid out once, into a new graph
// that shares the node columns of the one mined.

// ExceptionOptions are the (ε, δ) filter an exception mine applies.
type ExceptionOptions struct {
	// Eps is the minimum deviation ε; MinCount the minimum support δ.
	Eps      float64
	MinCount int64
}

// condAgg accumulates the conditional distributions of one (condition,
// target) pair: the durations spent at the target, and the transitions out
// of it, to each of its children (kids, in child-range order) or ending
// there (ends).
type condAgg struct {
	dur  stats.Multinomial
	kids []int64
	ends int64
	// reach is an aggregated path up to and including the target's stage
	// (the first one seen); its locations are the target's prefix.
	reach pathdb.Path
}

// condSlot is one supplied condition with its aggregates per target node.
type condSlot struct {
	cond []StagePin // sorted by depth
	// restricted limits the targets to moved nodes.
	restricted bool
	aggs       map[int32]*condAgg
}

// walked is one scanned path that lies in the graph: aggregated to the
// graph's level, with the node index of every stage.
type walked struct {
	ap    pathdb.Path
	nodes []int32
	// added marks a path new since the last mine; nodes[:moved] are the
	// path's moved nodes (all of them in a mine from scratch).
	added bool
	moved int
}

// row is one exception as the table lays it out: node index, key
// (exceptionKey), condition, and its conditional distributions as sorted
// outcome and weight runs.
type row struct {
	key                  string
	node                 int32
	support              int64
	durDev, trDev        float64
	pins                 []StagePin
	durO, durW, trO, trW []int64
}

// MineExceptions returns g with its exception set mined over paths, every
// path g summarizes, already aggregated to g's level, of which the last
// added are new since prev was mined; prev is the graph those were folded
// into to make g, or nil, and added == len(paths) mines from scratch. The
// conditions old are checked at the nodes the new paths moved, and prev's
// exceptions at every other node are carried over, found in g by their
// prefix; the conditions fresh, never checked before, are checked at every
// node. An exception is recorded when its support reaches opt.MinCount and
// the L∞ deviation of its conditional duration or transition distribution
// from the node's general one exceeds opt.Eps. The result equals a mine from
// scratch of old and fresh over the same paths. It also returns the number
// of moved nodes, 0 when every path is new. Neither g nor prev changes: the
// result is a new graph sharing g's node columns, or g itself when both
// hold no exception.
//
// With no condition at all there is nothing to check and nothing to carry
// over, so the set is empty and only the new paths are walked, to count the
// nodes they moved.
func (g *Graph) MineExceptions(prev *Graph, paths []pathdb.Path, added int, old, fresh [][]StagePin, opt ExceptionOptions) (*Graph, int) {
	f := g.cols
	none := len(old)+len(fresh) == 0
	if none && added == len(paths) {
		return g.withExceptions(nil), 0
	}
	from := 0
	if none {
		from = len(paths) - added
	}
	scan := f.walkAll(paths[from:], len(paths)-added-from)
	var rows []row
	moved := 0
	if added < len(paths) {
		var at []bool
		moved, at = restrict(scan, f.NumNodes())
		if !none && prev != nil {
			rows = f.carried(prev.cols, at)
		}
	}
	if none {
		return g.withExceptions(nil), moved
	}

	slots := make([]condSlot, 0, len(old)+len(fresh))
	slots = appendSlots(slots, old, true)
	slots = appendSlots(slots, fresh, false)
	for _, w := range scan {
		for _, s := range slots {
			end := len(w.nodes)
			if s.restricted {
				end = w.moved
			}
			// Targets start at the deepest pinned node itself: its
			// transition may deviate under the condition — the paper's
			// truck example conditions a node's transition on its own
			// duration, whose duration axis is vacuous and filtered
			// downstream.
			first := s.cond[len(s.cond)-1].Depth - 1
			if first >= end || !pinsMatch(w.ap, s.cond) {
				continue
			}
			for j := first; j < end; j++ {
				t := w.nodes[j]
				a := s.aggs[t]
				if a == nil {
					a = &condAgg{kids: make([]int64, f.ChildLo[t+1]-f.ChildLo[t]), reach: w.ap[:j+1]}
					s.aggs[t] = a
				}
				a.dur.Observe(w.ap[j].Duration)
				if j+1 < len(w.nodes) {
					a.kids[w.nodes[j+1]-f.ChildLo[t]]++
				} else {
					a.ends++
				}
			}
		}
	}
	var targets []int32
	for _, s := range slots {
		targets = targets[:0]
		for t := range s.aggs {
			targets = append(targets, t)
		}
		slices.Sort(targets)
		for _, target := range targets {
			if r, ok := f.exception(target, s.cond, s.aggs[target], opt); ok {
				rows = append(rows, r)
			}
		}
	}
	return g.withExceptions(rows), moved
}

// appendSlots appends a slot per non-empty condition, its pins sorted by
// depth.
func appendSlots(slots []condSlot, conds [][]StagePin, restricted bool) []condSlot {
	for _, c := range conds {
		if len(c) == 0 {
			continue
		}
		cc := append([]StagePin(nil), c...)
		sort.Slice(cc, func(i, j int) bool { return cc[i].Depth < cc[j].Depth })
		slots = append(slots, condSlot{cond: cc, restricted: restricted, aggs: make(map[int32]*condAgg)})
	}
	return slots
}

// restrict marks the nodes of n the scan's new paths moved and limits each
// scanned path's restricted targets to its moved nodes, and returns how many
// nodes moved and the marks. Those are a prefix of the path's nodes: a moved
// node's ancestors lie on the same new path.
func restrict(scan []walked, n int) (int, []bool) {
	at, moved := make([]bool, n), 0
	for _, w := range scan {
		if w.added {
			for _, i := range w.nodes {
				if !at[i] {
					at[i] = true
					moved++
				}
			}
		}
	}
	for i := range scan {
		w := &scan[i]
		w.moved = 0
		for w.moved < len(w.nodes) && at[w.nodes[w.moved]] {
			w.moved++
		}
	}
	return moved, at
}

// walkAll resolves the node indices of paths aggregated to the graph's
// level; those from index firstNew on are new. Empty paths and paths that
// were not folded into this graph are skipped rather than inventing
// structure during exception mining. The index lists share one array.
func (f *Flat) walkAll(paths []pathdb.Path, firstNew int) []walked {
	n := 0
	for _, ap := range paths {
		n += len(ap)
	}
	arena := make([]int32, n)
	out := make([]walked, 0, len(paths))
next:
	for k, ap := range paths {
		if len(ap) == 0 {
			continue
		}
		nodes := arena[:len(ap):len(ap)]
		cur := int32(0)
		for i, st := range ap {
			if cur = f.child(cur, st.Location); cur < 0 {
				continue next
			}
			nodes[i] = cur
		}
		arena = arena[len(ap):]
		out = append(out, walked{ap: ap, nodes: nodes, added: k >= firstNew, moved: len(nodes)})
	}
	return out
}

// child returns the index of node i's child at loc, or -1. Fan-outs are
// small, so it scans.
func (f *Flat) child(i int32, loc hierarchy.NodeID) int32 {
	for j := f.ChildLo[i]; j < f.ChildLo[i+1]; j++ {
		if l := hierarchy.NodeID(f.Locations[j]); l >= loc {
			if l == loc {
				return j
			}
			break
		}
	}
	return -1
}

func pinsMatch(ap pathdb.Path, pins []StagePin) bool {
	for _, pin := range pins {
		i := pin.Depth - 1
		if i < 0 || i >= len(ap) {
			return false
		}
		if ap[i].Location != pin.Location {
			return false
		}
		if !pin.DurAny && ap[i].Duration != pin.Duration {
			return false
		}
	}
	return true
}

// exception applies the (ε, δ) filter to the aggregates of a condition at
// a target node and returns the exception's row, or false. The target's
// node-general distributions are the reference; conditions that pin the
// target's own duration would trivially deviate on the duration axis, so
// when the deepest pin is the target node itself only the transition axis
// counts.
func (f *Flat) exception(target int32, cond []StagePin, a *condAgg, opt ExceptionOptions) (row, bool) {
	support := a.dur.Total()
	if support < opt.MinCount {
		return row{}, false
	}
	dur, gen := a.dur.Sorted(), f.durationsAt(target)
	devD := dur.MaxDeviation(&gen)
	lo, hi := f.ChildLo[target], f.ChildLo[target+1]
	tr := colTrans{total: support, term: a.ends, lo: lo, locs: f.Locations[lo:hi], counts: a.kids}
	at := f.transAt(target)
	devT := maxDeviation(&tr, &at)
	pinsTarget := cond[len(cond)-1].Depth == len(a.reach)
	if !(devT > opt.Eps || (!pinsTarget && devD > opt.Eps)) {
		return row{}, false
	}
	if pinsTarget {
		devD = 0
	}
	prefix := make([]hierarchy.NodeID, len(a.reach))
	for i, st := range a.reach {
		prefix[i] = st.Location
	}
	r := row{key: exceptionKey(prefix, cond), node: target, support: support, durDev: devD, trDev: devT, pins: cond}
	r.durO, r.durW = a.dur.Columns()
	if a.ends > 0 {
		r.trO, r.trW = append(r.trO, Terminate), append(r.trW, a.ends)
	}
	for k, c := range a.kids {
		if c > 0 {
			r.trO, r.trW = append(r.trO, int64(tr.locs[k])), append(r.trW, c)
		}
	}
	return r, true
}

// carried returns the rows of the exceptions of p, the graph f was folded
// from, at the nodes of f its new paths did not move: each found in f by
// its prefix, its table entry read from p's columns as it stands, since no
// path it depends on has changed.
func (f *Flat) carried(p *Flat, moved []bool) []row {
	if len(p.ExcNode) == 0 {
		return nil
	}
	prefixOf := p.prefixes()
	var rows []row
next:
	for j, node := range p.ExcNode {
		prefix := prefixOf(node)
		i := int32(0)
		for _, l := range prefix {
			if i = f.child(i, l); i < 0 {
				continue next
			}
		}
		if moved[i] {
			continue
		}
		pins := make([]StagePin, 0, p.ExcPinLo[j+1]-p.ExcPinLo[j])
		for k := p.ExcPinLo[j]; k < p.ExcPinLo[j+1]; k++ {
			pins = append(pins, StagePin{Depth: int(p.PinDepth[k]), Location: hierarchy.NodeID(p.PinLoc[k]),
				Duration: p.PinDur[k], DurAny: p.PinDurAny[k]})
		}
		dlo, tlo, thi := p.ExcDurLo[j], p.ExcTrLo[j], p.ExcDurLo[j+1]
		rows = append(rows, row{
			key: exceptionKey(prefix, pins), node: i, support: p.ExcSupport[j],
			durDev: p.ExcDurDev[j], trDev: p.ExcTrDev[j], pins: pins,
			durO: p.ExcOutcomes[dlo:tlo], durW: p.ExcWeights[dlo:tlo],
			trO: p.ExcOutcomes[tlo:thi], trW: p.ExcWeights[tlo:thi],
		})
	}
	return rows
}

// exceptionKey is the identity of an exception — its target's prefix and
// its condition — in a form whose byte order is the order exceptions are
// kept in. Every location, depth and separator is a 4-byte big-endian
// token, so keys compare token by token whatever the size of the location
// hierarchy.
func exceptionKey(prefix []hierarchy.NodeID, pins []StagePin) string {
	b := make([]byte, 0, 8*len(prefix)+4+17*len(pins))
	for _, l := range prefix {
		b = binary.BigEndian.AppendUint32(b, uint32(l))
		b = binary.BigEndian.AppendUint32(b, '.')
	}
	b = binary.BigEndian.AppendUint32(b, '|')
	return string(AppendPins(b, pins))
}

// AppendPins appends a pin-list's identity to b, pins in the given order:
// depth and location as 4-byte big-endian tokens, then a pinned duration's
// 8 bytes, low byte first, or the single '*' of an unpinned one. It is the
// condition part of an exception's key and what core's condition cache
// tells conditions apart by.
func AppendPins(b []byte, pins []StagePin) []byte {
	for _, pin := range pins {
		b = binary.BigEndian.AppendUint32(b, uint32(pin.Depth))
		b = binary.BigEndian.AppendUint32(b, uint32(pin.Location))
		if pin.DurAny {
			b = append(b, '*')
		} else {
			b = binary.LittleEndian.AppendUint64(b, uint64(pin.Duration))
		}
	}
	return b
}

// withExceptions returns a graph of g's nodes whose exception table is
// rows, deduplicated by key (keeping one; two supplied conditions may pin
// the same stages, with equal aggregates) and sorted by it, so the table is
// the same whatever the mining order. It is g itself when neither holds an
// exception. The table's columns are exact-sized, carved out of one array
// per element type.
func (g *Graph) withExceptions(rows []row) *Graph {
	if len(rows) == 0 && len(g.cols.ExcNode) == 0 {
		return g
	}
	slices.SortFunc(rows, func(a, b row) int { return strings.Compare(a.key, b.key) })
	rows = slices.CompactFunc(rows, func(a, b row) bool { return a.key == b.key })
	b := &boxed{g: Graph{level: g.level, loc: g.loc}}
	f := &b.f
	*f = Flat{Paths: g.cols.Paths, Locations: g.cols.Locations, Counts: g.cols.Counts, ChildLo: g.cols.ChildLo,
		DurLo: g.cols.DurLo, Outcomes: g.cols.Outcomes, Weights: g.cols.Weights}
	b.g.cols = f
	m := len(rows)
	if m == 0 {
		return &b.g
	}
	pins, pool := 0, 0
	for _, r := range rows {
		pins += len(r.pins)
		pool += len(r.durO) + len(r.trO)
	}
	a32, a64, dev := make([]int32, 4*m+2+2*pins), make([]int64, m+pins+2*pool), make([]float64, 2*m)
	f.ExcNode, f.ExcPinLo, f.ExcDurLo, f.ExcTrLo = carve(&a32, m), carve(&a32, m+1), carve(&a32, m+1), carve(&a32, m)
	f.PinDepth, f.PinLoc = carve(&a32, pins), carve(&a32, pins)
	f.ExcSupport, f.PinDur = carve(&a64, m), carve(&a64, pins)
	f.ExcOutcomes, f.ExcWeights = carve(&a64, pool), carve(&a64, pool)
	f.ExcDurDev, f.ExcTrDev = carve(&dev, m), carve(&dev, m)
	f.PinDurAny = make([]bool, 0, pins)
	for _, r := range rows {
		f.ExcNode = append(f.ExcNode, r.node)
		f.ExcSupport = append(f.ExcSupport, r.support)
		f.ExcDurDev = append(f.ExcDurDev, r.durDev)
		f.ExcTrDev = append(f.ExcTrDev, r.trDev)
		f.ExcPinLo = append(f.ExcPinLo, int32(len(f.PinDepth)))
		for _, p := range r.pins {
			f.PinDepth = append(f.PinDepth, int32(p.Depth))
			f.PinLoc = append(f.PinLoc, int32(p.Location))
			f.PinDur = append(f.PinDur, p.Duration)
			f.PinDurAny = append(f.PinDurAny, p.DurAny)
		}
		f.ExcDurLo = append(f.ExcDurLo, int32(len(f.ExcOutcomes)))
		f.ExcOutcomes, f.ExcWeights = append(f.ExcOutcomes, r.durO...), append(f.ExcWeights, r.durW...)
		f.ExcTrLo = append(f.ExcTrLo, int32(len(f.ExcOutcomes)))
		f.ExcOutcomes, f.ExcWeights = append(f.ExcOutcomes, r.trO...), append(f.ExcWeights, r.trW...)
	}
	f.ExcPinLo = append(f.ExcPinLo, int32(len(f.PinDepth)))
	f.ExcDurLo = append(f.ExcDurLo, int32(len(f.ExcOutcomes)))
	return &b.g
}
