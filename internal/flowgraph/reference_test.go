package flowgraph

import (
	"sort"

	"flowcube/internal/hierarchy"
	"flowcube/internal/pathdb"
	"flowcube/internal/stats"
)

// The reference the column miner is checked against: the tree miner
// MineExceptions was before a graph was its columns. A RefGraph is a
// pointer tree built one path at a time, mined over its nodes, and laid out
// as columns by a walk of the tree (Flat), so the column kernels — Fold,
// FoldPaths and MineExceptions — can be compared with it column for column.

// RefGraph is a flowgraph as a writable pointer tree, with its exceptions.
type RefGraph struct {
	root       *Node
	paths      int64
	exceptions []Exception
}

// NewRef returns an empty reference graph.
func NewRef() *RefGraph { return &RefGraph{root: &Node{Location: hierarchy.Root}} }

// Add folds in a path already aggregated to the graph's level; an empty
// path adds nothing.
func (g *RefGraph) Add(p pathdb.Path) {
	if len(p) == 0 {
		return
	}
	g.paths++
	cur := g.root
	for _, st := range p {
		i, ok := cur.childIndex(st.Location)
		if !ok {
			cur.children = append(cur.children, nil)
			copy(cur.children[i+1:], cur.children[i:])
			cur.children[i] = &Node{Location: st.Location, Depth: cur.Depth + 1}
		}
		next := cur.children[i]
		next.Count++
		next.Durations.Observe(st.Duration)
		cur = next
	}
}

// refAgg accumulates the conditional distributions of one (condition,
// target) pair.
type refAgg struct {
	dur, tr stats.Multinomial
	reach   pathdb.Path
}

type refSlot struct {
	cond       []StagePin
	restricted bool
	aggs       map[*Node]*refAgg
}

type refWalked struct {
	ap    pathdb.Path
	nodes []*Node
	added bool
	moved int
}

// MineExceptions is Graph.MineExceptions over the tree, writing the
// exceptions into it: the exceptions at nodes the new paths moved are
// dropped and re-mined, the others kept by node.
func (g *RefGraph) MineExceptions(paths []pathdb.Path, added int, old, fresh [][]StagePin, opt ExceptionOptions) int {
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
	var slots []refSlot
	for k, conds := range [][][]StagePin{old, fresh} {
		for _, c := range conds {
			if len(c) == 0 {
				continue
			}
			cc := append([]StagePin(nil), c...)
			sort.Slice(cc, func(i, j int) bool { return cc[i].Depth < cc[j].Depth })
			slots = append(slots, refSlot{cond: cc, restricted: k == 0, aggs: make(map[*Node]*refAgg)})
		}
	}
	for _, w := range scan {
		for _, s := range slots {
			end := len(w.nodes)
			if s.restricted {
				end = w.moved
			}
			first := s.cond[len(s.cond)-1].Depth - 1
			if first >= end || !pinsMatch(w.ap, s.cond) {
				continue
			}
			for j := first; j < end; j++ {
				a := s.aggs[w.nodes[j]]
				if a == nil {
					a = &refAgg{reach: w.ap[:j+1]}
					s.aggs[w.nodes[j]] = a
				}
				a.dur.Observe(w.ap[j].Duration)
				if j+1 < len(w.ap) {
					a.tr.Observe(int64(w.ap[j+1].Location))
				} else {
					a.tr.Observe(Terminate)
				}
			}
		}
	}
	for _, s := range slots {
		for target, a := range s.aggs {
			g.appendException(target, s.cond, a, opt)
		}
	}
	g.seal()
	return moved
}

func (g *RefGraph) restrict(scan []refWalked) int {
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

func (g *RefGraph) walkAll(paths []pathdb.Path, firstNew int) []refWalked {
	var out []refWalked
next:
	for k, ap := range paths {
		nodes := make([]*Node, len(ap))
		cur := g.root
		for i, st := range ap {
			if cur = cur.Child(st.Location); cur == nil {
				continue next
			}
			nodes[i] = cur
		}
		if len(ap) > 0 {
			out = append(out, refWalked{ap: ap, nodes: nodes, added: k >= firstNew, moved: len(nodes)})
		}
	}
	return out
}

// appendException applies the (ε, δ) filter against the target node's
// distributions, T read as a Multinomial of the children's counts.
func (g *RefGraph) appendException(target *Node, cond []StagePin, a *refAgg, opt ExceptionOptions) {
	if a.tr.Total() < opt.MinCount {
		return
	}
	dur, gen := a.dur.Sorted(), target.Durations.Sorted()
	devD := dur.MaxDeviation(&gen)
	var t stats.Multinomial
	if ends := target.Terminations(); ends > 0 {
		t.Add(Terminate, ends)
	}
	for _, c := range target.children {
		t.Add(int64(c.Location), c.Count)
	}
	tr, tt := a.tr.Sorted(), t.Sorted()
	devT := tr.MaxDeviation(&tt)
	pinsTarget := cond[len(cond)-1].Depth == target.Depth
	if !(devT > opt.Eps || (!pinsTarget && devD > opt.Eps)) {
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
		Node: target, Prefix: prefix, Condition: append([]StagePin(nil), cond...),
		Support: a.tr.Total(), Durations: &a.dur, Transitions: &a.tr,
		DurationDeviation: devD, TransitionDeviation: devT,
	})
}

// seal deduplicates the exceptions by key, keeping the first, and sorts
// them by it.
func (g *RefGraph) seal() {
	type keyed struct {
		key string
		x   Exception
	}
	var ks []keyed
	seen := make(map[string]bool)
	for _, x := range g.exceptions {
		if k := exceptionKey(x.Prefix, x.Condition); !seen[k] {
			seen[k] = true
			ks = append(ks, keyed{k, x})
		}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	g.exceptions = g.exceptions[:0]
	for _, k := range ks {
		g.exceptions = append(g.exceptions, k.x)
	}
}

// Flat lays the tree and its exceptions out in columns, breadth first with
// children by location. An exception-free table is left empty, as the
// snapshot decoder leaves it.
func (g *RefGraph) Flat() *Flat {
	index := make(map[*Node]int32)
	order := []*Node{g.root}
	outcomes := 0
	for i := 0; i < len(order); i++ {
		o, _ := order[i].Durations.Columns()
		outcomes += len(o)
		for _, c := range order[i].children {
			index[c] = int32(len(order))
			order = append(order, c)
		}
	}
	n := len(order)
	f := &Flat{
		Paths:     g.paths,
		Locations: make([]int32, n),
		Counts:    make([]int64, n),
		ChildLo:   make([]int32, n+1),
		DurLo:     make([]int32, n+1),
		Outcomes:  make([]int64, 0, outcomes),
		Weights:   make([]int64, 0, outcomes),
	}
	next := int32(1)
	for i, node := range order {
		f.Locations[i] = int32(node.Location)
		f.Counts[i] = node.Count
		f.ChildLo[i] = next
		next += int32(len(node.children))
		f.DurLo[i] = int32(len(f.Outcomes))
		f.Outcomes, f.Weights = node.Durations.AppendSorted(f.Outcomes, f.Weights)
	}
	f.ChildLo[n] = next
	f.DurLo[n] = int32(len(f.Outcomes))
	if len(g.exceptions) == 0 {
		return f
	}
	for _, x := range g.exceptions {
		f.ExcNode = append(f.ExcNode, index[x.Node])
		f.ExcSupport = append(f.ExcSupport, x.Support)
		f.ExcDurDev = append(f.ExcDurDev, x.DurationDeviation)
		f.ExcTrDev = append(f.ExcTrDev, x.TransitionDeviation)
		f.ExcPinLo = append(f.ExcPinLo, int32(len(f.PinDepth)))
		for _, p := range x.Condition {
			f.PinDepth = append(f.PinDepth, int32(p.Depth))
			f.PinLoc = append(f.PinLoc, int32(p.Location))
			f.PinDur = append(f.PinDur, p.Duration)
			f.PinDurAny = append(f.PinDurAny, p.DurAny)
		}
		f.ExcDurLo = append(f.ExcDurLo, int32(len(f.ExcOutcomes)))
		f.ExcOutcomes, f.ExcWeights = x.Durations.AppendSorted(f.ExcOutcomes, f.ExcWeights)
		f.ExcTrLo = append(f.ExcTrLo, int32(len(f.ExcOutcomes)))
		f.ExcOutcomes, f.ExcWeights = x.Transitions.AppendSorted(f.ExcOutcomes, f.ExcWeights)
	}
	f.ExcPinLo = append(f.ExcPinLo, int32(len(f.PinDepth)))
	f.ExcDurLo = append(f.ExcDurLo, int32(len(f.ExcOutcomes)))
	return f
}

// Paths reports the number of paths the tree summarizes.
func (g *RefGraph) Paths() int64 { return g.paths }

// Exceptions returns the tree's exceptions, naming its own nodes.
func (g *RefGraph) Exceptions() []Exception { return g.exceptions }

// Root returns the tree's virtual root.
func (g *RefGraph) Root() *Node { return g.root }
