package flowgraph

import (
	"encoding/binary"
	"sort"

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
// Those targets are re-aggregated and every other exception is kept.

// ExceptionOptions are the (ε, δ) filter an exception mine applies.
type ExceptionOptions struct {
	// Eps is the minimum deviation ε; MinCount the minimum support δ.
	Eps      float64
	MinCount int64
}

// condAgg accumulates the conditional distributions of one (condition,
// target) pair.
type condAgg struct {
	dur stats.Multinomial
	tr  stats.Multinomial
	// reach is an aggregated path up to and including the target's stage
	// (the first one seen); its locations are the target's prefix.
	reach pathdb.Path
}

// condSlot is one supplied condition with its aggregates per target.
type condSlot struct {
	cond []StagePin // sorted by depth
	// restricted limits the targets to moved nodes.
	restricted bool
	aggs       map[*Node]*condAgg
}

// MineExceptions re-mines the exception set over paths, every path the
// graph summarizes, of which the last added are new since the set was last
// mined; added == len(paths) mines from scratch. The conditions old are
// checked at the nodes the new paths moved, and the exceptions at every
// other node are kept; the conditions fresh, never checked before, are
// checked at every node. An exception is recorded when its support reaches
// opt.MinCount and the L∞ deviation of its conditional duration or
// transition distribution from the node's general one exceeds opt.Eps. The
// result equals a mine from scratch of old and fresh over the same paths. It
// returns the number of moved nodes, 0 when every path is new.
//
// With no condition at all there is nothing to check and nothing to keep,
// so the set is cleared and only the new paths are walked, to count the
// nodes they moved.
func (g *Graph) MineExceptions(paths []pathdb.Path, added int, old, fresh [][]StagePin, opt ExceptionOptions) int {
	g.writable()
	if len(old)+len(fresh) == 0 {
		g.exceptions = g.exceptions[:0]
		if added == len(paths) {
			return 0
		}
		return g.restrict(g.walkAll(paths[len(paths)-added:], 0))
	}
	scan := g.walkAll(paths, len(paths)-added)
	moved := 0
	if added < len(paths) {
		moved = g.restrict(scan)
	} else {
		g.exceptions = g.exceptions[:0]
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
				a := s.aggs[w.nodes[j]]
				if a == nil {
					a = &condAgg{}
					s.aggs[w.nodes[j]] = a
				}
				a.observe(w.ap, j)
			}
		}
	}
	for _, s := range slots {
		for target, a := range s.aggs {
			g.appendException(target, s.cond, a, opt.Eps, opt.MinCount)
		}
	}
	g.sealExceptions()
	return moved
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
		slots = append(slots, condSlot{cond: cc, restricted: restricted, aggs: make(map[*Node]*condAgg)})
	}
	return slots
}

// restrict finds the nodes the scan's new paths moved, drops the exceptions
// at them and limits each scanned path's restricted targets to its moved
// nodes, and returns how many nodes moved. Those are a prefix of the path's
// nodes: a moved node's ancestors lie on the same new path.
func (g *Graph) restrict(scan []walked) int {
	moved := make(map[*Node]bool)
	for _, w := range scan {
		if w.added {
			for _, n := range w.nodes {
				moved[n] = true
			}
		}
	}
	for i := range scan {
		w := &scan[i]
		w.moved = 0
		for w.moved < len(w.nodes) && moved[w.nodes[w.moved]] {
			w.moved++
		}
	}
	kept := g.exceptions[:0]
	for _, x := range g.exceptions {
		if !moved[x.Node] {
			kept = append(kept, x)
		}
	}
	g.exceptions = kept
	return len(moved)
}

// walked is one scanned path that lies in the graph: aggregated to the
// graph's level, with the tree node of every stage.
type walked struct {
	ap    pathdb.Path
	nodes []*Node
	// added marks a path new since the last mine; nodes[:moved] are the
	// path's moved nodes (all of them in a mine from scratch).
	added bool
	moved int
}

// walkAll aggregates the raw paths and resolves their tree nodes; those from
// index firstNew on are new. Empty paths and paths that were not folded
// into this graph are skipped rather than inventing structure during
// exception mining.
func (g *Graph) walkAll(paths []pathdb.Path, firstNew int) []walked {
	out := make([]walked, 0, len(paths))
next:
	for k, p := range paths {
		ap := pathdb.AggregatePath(p, g.level, g.merge)
		nodes := make([]*Node, len(ap))
		cur := g.root
		for i, st := range ap {
			if cur = cur.Child(st.Location); cur == nil {
				continue next
			}
			nodes[i] = cur
		}
		if len(ap) > 0 {
			out = append(out, walked{ap: ap, nodes: nodes, added: k >= firstNew, moved: len(nodes)})
		}
	}
	return out
}

// observe records stage j of the path — its duration and the transition out
// of it — in the aggregate.
func (a *condAgg) observe(ap pathdb.Path, j int) {
	if a.reach == nil {
		a.reach = ap[:j+1]
	}
	a.dur.Observe(ap[j].Duration)
	if j+1 < len(ap) {
		a.tr.Observe(int64(ap[j+1].Location))
	} else {
		a.tr.Observe(Terminate)
	}
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

// appendException applies the (ε, δ) filter. The target's node-general
// distributions are the reference; conditions that pin the target's own
// duration would trivially deviate on the duration axis, so when the
// deepest pin is the target node itself only the transition axis counts.
func (g *Graph) appendException(target *Node, cond []StagePin, a *condAgg, eps float64, minCount int64) {
	if a.tr.Total() < minCount {
		return
	}
	devD := a.dur.MaxDeviation(&target.Durations)
	devT := keptDeviation(&a.tr, target)
	pinsTarget := cond[len(cond)-1].Depth == target.Depth
	significant := devT > eps || (!pinsTarget && devD > eps)
	if !significant {
		return
	}
	if pinsTarget {
		devD = 0
	}
	prefix := make([]hierarchy.NodeID, len(a.reach))
	for i, st := range a.reach {
		prefix[i] = st.Location
	}
	g.exceptions = append(g.exceptions, Exception{
		Node:                target,
		Prefix:              prefix,
		Condition:           append([]StagePin(nil), cond...),
		Support:             a.tr.Total(),
		Durations:           &a.dur,
		Transitions:         &a.tr,
		DurationDeviation:   devD,
		TransitionDeviation: devT,
	})
}

// exceptionKey is the identity of an exception — its target's prefix and
// its condition — in a form whose byte order is the order exceptions are
// kept in. Every location, depth and separator is a 4-byte big-endian
// token, so keys compare token by token whatever the size of the location
// hierarchy.
func exceptionKey(x *Exception) string {
	b := make([]byte, 0, 8*len(x.Prefix)+4+17*len(x.Condition))
	for _, l := range x.Prefix {
		b = binary.BigEndian.AppendUint32(b, uint32(l))
		b = binary.BigEndian.AppendUint32(b, '.')
	}
	b = binary.BigEndian.AppendUint32(b, '|')
	return string(AppendPins(b, x.Condition))
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

// sealExceptions deduplicates the mined exceptions by target and condition
// (keeping the first; two supplied conditions may pin the same stages, with
// equal aggregates) and sorts them by exceptionKey,
// computed once each, so the set is the same whatever the mining order.
func (g *Graph) sealExceptions() {
	type keyed struct {
		key string
		x   Exception
	}
	ks := make([]keyed, 0, len(g.exceptions))
	seen := make(map[string]bool, len(g.exceptions))
	for i := range g.exceptions {
		if k := exceptionKey(&g.exceptions[i]); !seen[k] {
			seen[k] = true
			ks = append(ks, keyed{k, g.exceptions[i]})
		}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	g.exceptions = g.exceptions[:0]
	for _, k := range ks {
		g.exceptions = append(g.exceptions, k.x)
	}
}
