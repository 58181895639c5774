package flowgraph

import (
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
// segments produced by the Shared algorithm — and checks each one.

type condKey struct {
	condNode *Node
	condDur  int64
	target   *Node
}

type condAgg struct {
	dur *stats.Multinomial
	tr  *stats.Multinomial
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
	agg := make(map[condKey]*condAgg)
	for _, p := range paths {
		ap := pathdb.AggregatePath(p, g.level, g.merge)
		nodes, outcomes := g.walk(ap)
		if nodes == nil {
			continue
		}
		// j ranges from i (not i+1): conditioning a node's transition on
		// its own duration is the paper's truck example; the duration axis
		// of such self-conditions is vacuous and filtered downstream.
		for i := 0; i < len(nodes); i++ {
			for j := i; j < len(nodes); j++ {
				k := condKey{condNode: nodes[i], condDur: ap[i].Duration, target: nodes[j]}
				a := agg[k]
				if a == nil {
					a = &condAgg{dur: stats.NewMultinomial(), tr: stats.NewMultinomial(), reach: ap[:j+1]}
					agg[k] = a
				}
				a.dur.Observe(ap[j].Duration)
				a.tr.Observe(outcomes[j])
			}
		}
	}
	g.exceptions = g.exceptions[:0]
	for k, a := range agg {
		g.appendException(k.target, []StagePin{{
			Depth:    k.condNode.Depth,
			Location: k.condNode.Location,
			Duration: k.condDur,
		}}, a, eps, minCount)
	}
	g.sortExceptions()
}

// MineExceptionsFor checks the supplied conditions — each a set of pins on
// earlier stages, typically derived from frequent path segments — in a
// single scan of the paths and records those inducing deviations > eps with
// support ≥ minCount. Exceptions are appended to the existing set (then
// deduplicated by node and condition).
func (g *Graph) MineExceptionsFor(paths []pathdb.Path, conditions [][]StagePin, eps float64, minCount int64) {
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
	for _, p := range paths {
		ap := pathdb.AggregatePath(p, g.level, g.merge)
		nodes, outcomes := g.walk(ap)
		if nodes == nil {
			continue
		}
		for _, s := range slots {
			if !pinsMatch(ap, s.cond) {
				continue
			}
			// Targets start at the deepest pinned node itself (index
			// maxPin-1): its transition may deviate under the condition.
			for j := s.maxPin - 1; j < len(nodes); j++ {
				a := s.aggs[nodes[j]]
				if a == nil {
					a = &condAgg{dur: stats.NewMultinomial(), tr: stats.NewMultinomial(), reach: ap[:j+1]}
					s.aggs[nodes[j]] = a
				}
				a.dur.Observe(ap[j].Duration)
				a.tr.Observe(outcomes[j])
			}
		}
	}
	for _, s := range slots {
		for target, a := range s.aggs {
			g.appendException(target, s.cond, a, eps, minCount)
		}
	}
	g.dedupExceptions()
	g.sortExceptions()
}

// walk resolves the tree nodes and per-position transition outcomes of an
// aggregated path; nil when the path is empty.
func (g *Graph) walk(ap pathdb.Path) ([]*Node, []int64) {
	if len(ap) == 0 {
		return nil, nil
	}
	nodes := make([]*Node, len(ap))
	outcomes := make([]int64, len(ap))
	cur := g.root
	for i, st := range ap {
		cur = cur.Child(st.Location)
		if cur == nil {
			// The path was not folded into this graph; skip it rather than
			// invent structure during exception mining.
			return nil, nil
		}
		nodes[i] = cur
	}
	for i := 0; i < len(ap)-1; i++ {
		outcomes[i] = int64(ap[i+1].Location)
	}
	outcomes[len(ap)-1] = Terminate
	return nodes, outcomes
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
		Durations:           a.dur,
		Transitions:         a.tr,
		DurationDeviation:   devD,
		TransitionDeviation: devT,
	})
}

func exceptionKey(x Exception) string {
	var b []byte
	for _, l := range x.Prefix {
		b = append(b, byte(l), '.')
	}
	b = append(b, '|')
	for _, pin := range x.Condition {
		b = append(b, byte(pin.Depth), byte(pin.Location))
		if pin.DurAny {
			b = append(b, '*')
		} else {
			for s := 0; s < 8; s++ {
				b = append(b, byte(pin.Duration>>(8*s)))
			}
		}
	}
	return string(b)
}

func (g *Graph) dedupExceptions() {
	seen := make(map[string]bool, len(g.exceptions))
	out := g.exceptions[:0]
	for _, x := range g.exceptions {
		k := exceptionKey(x)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, x)
	}
	g.exceptions = out
}

func (g *Graph) sortExceptions() {
	sort.Slice(g.exceptions, func(i, j int) bool {
		return exceptionKey(g.exceptions[i]) < exceptionKey(g.exceptions[j])
	})
}
