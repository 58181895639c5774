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
// MineExceptions conditions on every single earlier stage duration with
// minimum support δ (expressed as a count). MineExceptionsFor additionally
// accepts arbitrary multi-stage conditions — typically the frequent path
// segments produced by the Shared algorithm — and checks each one. Each is
// its …At scan run at every target and sealed; restricted.go runs the same
// scans at the targets a batch moved.

// condAgg accumulates the conditional distributions of one (condition,
// target) pair.
type condAgg struct {
	dur stats.Multinomial
	tr  stats.Multinomial
	// reach is an aggregated path up to and including the target's stage
	// (the first one seen); its locations are the target's prefix.
	reach pathdb.Path
}

// MineExceptions scans the raw paths once, aggregating each to the graph's
// level, and records every exception whose condition is a single earlier
// stage duration: support ≥ minCount and L∞ deviation of the conditional
// duration or transition distribution from the node's general one > eps.
// Previously mined exceptions are replaced.
func (g *Graph) MineExceptions(paths []pathdb.Path, eps float64, minCount int64) {
	g.exceptions = g.exceptions[:0]
	g.MineExceptionsAt(paths, nil, eps, minCount)
	g.SealExceptions()
}

// MineExceptionsFor checks the supplied conditions — each a set of pins on
// earlier stages, typically derived from frequent path segments — in a
// single scan of the paths and records those inducing deviations > eps with
// support ≥ minCount. Exceptions are appended to the existing set (then
// deduplicated by node and condition).
func (g *Graph) MineExceptionsFor(paths []pathdb.Path, conditions [][]StagePin, eps float64, minCount int64) {
	g.MineExceptionsForAt(paths, conditions, nil, eps, minCount)
	g.SealExceptions()
}

// stageCond is a single-stage condition: the path ran through node and
// stayed there for dur.
type stageCond struct {
	node *Node
	dur  int64
}

// MineExceptionsAt is the single-stage miner: it appends every exception
// whose condition is the duration at one stage and whose target — that stage
// or a later one — is in the set (nil means every target), leaving existing
// exceptions in place. Callers must SealExceptions when every restricted
// pass is done.
//
// The scan gates on δ before it builds anything. The paths that match a
// condition and reach a target are a subset of those that match the
// condition at all — support only falls along a branch of the prefix tree —
// so a first pass counts the scanned paths per condition, and conditional
// distributions are accumulated only under conditions that reach minCount.
// The counts are the scan's own (the graph's node counts may cover other
// paths), and appendException still applies the exact filter per target.
func (g *Graph) MineExceptionsAt(paths []pathdb.Path, targets map[*Node]bool, eps float64, minCount int64) {
	scan := g.walkAll(paths)
	support := make(map[stageCond]int64)
	for _, w := range scan {
		for i, n := range w.nodes {
			support[stageCond{n, w.ap[i].Duration}]++
		}
	}
	type condTarget struct {
		cond   stageCond
		target *Node
	}
	agg := make(map[condTarget]*condAgg)
	for _, w := range scan {
		// j ranges from i (not i+1): conditioning a node's transition on
		// its own duration is the paper's truck example; the duration axis
		// of such self-conditions is vacuous and filtered downstream.
		for i, n := range w.nodes {
			cond := stageCond{n, w.ap[i].Duration}
			if support[cond] < minCount {
				continue
			}
			for j := i; j < len(w.nodes); j++ {
				if targets != nil && !targets[w.nodes[j]] {
					continue
				}
				k := condTarget{cond, w.nodes[j]}
				a := agg[k]
				if a == nil {
					a = &condAgg{}
					agg[k] = a
				}
				a.observe(w.ap, j)
			}
		}
	}
	for k, a := range agg {
		g.appendException(k.target, []StagePin{{
			Depth:    k.cond.node.Depth,
			Location: k.cond.node.Location,
			Duration: k.cond.dur,
		}}, a, eps, minCount)
	}
}

// MineExceptionsForAt is the multi-stage miner: it checks the supplied
// conditions in one scan and appends the exceptions they induce at targets
// in the set (nil means every target). Like MineExceptionsAt it leaves
// existing exceptions in place and the caller seals. The conditions come
// from frequent segments, so there is nothing for a δ gate to skip.
func (g *Graph) MineExceptionsForAt(paths []pathdb.Path, conditions [][]StagePin, targets map[*Node]bool, eps float64, minCount int64) {
	type slot struct {
		cond   []StagePin
		maxPin int
		aggs   map[*Node]*condAgg
	}
	slots := make([]*slot, 0, len(conditions))
	for _, c := range conditions {
		if len(c) == 0 {
			continue
		}
		cc := append([]StagePin(nil), c...)
		sort.Slice(cc, func(i, j int) bool { return cc[i].Depth < cc[j].Depth })
		slots = append(slots, &slot{cond: cc, maxPin: cc[len(cc)-1].Depth, aggs: make(map[*Node]*condAgg)})
	}
	for _, w := range g.walkAll(paths) {
		for _, s := range slots {
			if !pinsMatch(w.ap, s.cond) {
				continue
			}
			// Targets start at the deepest pinned node itself (index
			// maxPin-1): its transition may deviate under the condition.
			for j := s.maxPin - 1; j < len(w.nodes); j++ {
				if targets != nil && !targets[w.nodes[j]] {
					continue
				}
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
			g.appendException(target, s.cond, a, eps, minCount)
		}
	}
}

// walked is one scanned path that lies in the graph: aggregated to the
// graph's level, with the tree node of every stage.
type walked struct {
	ap    pathdb.Path
	nodes []*Node
}

// walkAll aggregates the raw paths and resolves their tree nodes. Empty
// paths and paths that were not folded into this graph are skipped rather
// than inventing structure during exception mining.
func (g *Graph) walkAll(paths []pathdb.Path) []walked {
	out := make([]walked, 0, len(paths))
next:
	for _, p := range paths {
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
			out = append(out, walked{ap: ap, nodes: nodes})
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
	devD := a.dur.MaxDeviation(target.Durations)
	devT := a.tr.MaxDeviation(target.Transitions)
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

// SealExceptions deduplicates the mined exceptions by target and condition
// (keeping the first) and sorts them by exceptionKey, computed once each.
// Every miner ends with it — the full ones themselves, a sequence of
// restricted passes when the caller is done — so the final set is the same
// whatever the pass order.
func (g *Graph) SealExceptions() {
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
