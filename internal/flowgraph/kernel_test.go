package flowgraph_test

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"flowcube/internal/datagen"
	"flowcube/internal/flowgraph"
	"flowcube/internal/hierarchy"
	"flowcube/internal/pathdb"
	"flowcube/internal/stats"
)

// refException is what the ungated reference miner records per exception:
// everything Save writes, floats as bits.
type refException struct {
	Support    int64
	DevD, DevT uint64
	Dur, Tr    string
}

func exceptionID(prefix []hierarchy.NodeID, pin flowgraph.StagePin) string {
	return fmt.Sprint(prefix, pin.Depth, pin.Location, pin.Duration)
}

func describe(x flowgraph.Exception) refException {
	return refException{
		Support: x.Support,
		DevD:    math.Float64bits(x.DurationDeviation),
		DevT:    math.Float64bits(x.TransitionDeviation),
		Dur:     fmt.Sprint(x.Durations.AppendSorted(nil, nil)),
		Tr:      fmt.Sprint(x.Transitions.AppendSorted(nil, nil)),
	}
}

// singleStageConds returns the distinct single-stage conditions of the
// paths aggregated to the graph's level — one pin per (depth, location,
// duration) — that at least minCount of them carry. It is what a cell's
// frequent segments supply the miner with; at minCount 1 it is every such
// condition, and the miner applies δ per target.
func singleStageConds(g *flowgraph.Graph, paths []pathdb.Path, minCount int64) [][]flowgraph.StagePin {
	support := map[flowgraph.StagePin]int64{}
	var out [][]flowgraph.StagePin
	for _, p := range paths {
		for i, st := range pathdb.AggregatePath(p, g.Level(), nil) {
			pin := flowgraph.StagePin{Depth: i + 1, Location: st.Location, Duration: st.Duration}
			if support[pin]++; support[pin] == minCount {
				out = append(out, []flowgraph.StagePin{pin})
			}
		}
	}
	return out
}

// aggregate returns the paths aggregated to the level, as the miner takes
// them.
func aggregate(level pathdb.PathLevel, paths []pathdb.Path) []pathdb.Path {
	out := make([]pathdb.Path, len(paths))
	for i, p := range paths {
		out[i] = pathdb.AggregatePath(p, level, nil)
	}
	return out
}

// mineSingleStage returns g with its single-stage exceptions mined over
// paths from scratch.
func mineSingleStage(g *flowgraph.Graph, paths []pathdb.Path, eps float64, minCount int64) *flowgraph.Graph {
	m, _ := g.MineExceptions(nil, aggregate(g.Level(), paths), len(paths), singleStageConds(g, paths, 1), nil,
		flowgraph.ExceptionOptions{Eps: eps, MinCount: minCount})
	return m
}

// prefixKey names the node a location sequence reaches.
func prefixKey(prefix []hierarchy.NodeID) string { return fmt.Sprint(prefix) }

// nodeAt resolves a location sequence in the tree under root, or nil.
func nodeAt(root *flowgraph.Node, seq []hierarchy.NodeID) *flowgraph.Node {
	for _, l := range seq {
		if root = root.Child(l); root == nil {
			return nil
		}
	}
	return root
}

// referenceSingleStage is the single-stage miner without the δ gate: it
// accumulates the conditional distributions of every (stage, duration,
// later stage) triple of every scanned path that lies in the graph, and
// filters on (ε, δ) only at the end. targets, keyed by prefixKey, nil
// means every target.
func referenceSingleStage(g *flowgraph.Graph, level pathdb.PathLevel, paths []pathdb.Path, targets map[string]bool, eps float64, minCount int64) map[string]refException {
	type agg struct {
		prefix  []hierarchy.NodeID
		pin     flowgraph.StagePin
		target  *flowgraph.Node
		dur, tr stats.Multinomial
	}
	aggs := map[string]*agg{}
	root := g.Root()
	for _, p := range paths {
		ap := pathdb.AggregatePath(p, level, nil)
		prefix := make([]hierarchy.NodeID, len(ap))
		for i, st := range ap {
			prefix[i] = st.Location
		}
		if len(ap) == 0 || nodeAt(root, prefix) == nil {
			continue
		}
		for i := range ap {
			pin := flowgraph.StagePin{Depth: i + 1, Location: ap[i].Location, Duration: ap[i].Duration}
			for j := i; j < len(ap); j++ {
				target := nodeAt(root, prefix[:j+1])
				if targets != nil && !targets[prefixKey(prefix[:j+1])] {
					continue
				}
				id := exceptionID(prefix[:j+1], pin)
				a := aggs[id]
				if a == nil {
					a = &agg{prefix: prefix[:j+1], pin: pin, target: target}
					aggs[id] = a
				}
				a.dur.Observe(ap[j].Duration)
				if j+1 < len(ap) {
					a.tr.Observe(int64(ap[j+1].Location))
				} else {
					a.tr.Observe(flowgraph.Terminate)
				}
			}
		}
	}
	out := map[string]refException{}
	for id, a := range aggs {
		if a.tr.Total() < minCount {
			continue
		}
		devD := a.dur.MaxDeviation(&a.target.Durations)
		devT := a.tr.MaxDeviation(materializeTransitions(a.target))
		self := a.pin.Depth == a.target.Depth
		if !(devT > eps || (!self && devD > eps)) {
			continue
		}
		if self {
			devD = 0
		}
		out[id] = describe(flowgraph.Exception{
			Support: a.tr.Total(), Durations: &a.dur, Transitions: &a.tr,
			DurationDeviation: devD, TransitionDeviation: devT,
		})
	}
	return out
}

// materializeTransitions returns T at n as a Multinomial of its own, built
// by observing every path through n the way a node that kept T did: each
// child's count as a transition to its location, and the paths that end at
// n (its count less its children's, none at the root) as Terminate. The
// references compare against it, not against the tree walks the package
// derives T with.
func materializeTransitions(n *flowgraph.Node) *stats.Multinomial {
	m := new(stats.Multinomial)
	ends := n.Count
	for _, c := range n.Children() {
		m.Add(int64(c.Location), c.Count)
		ends -= c.Count
	}
	if n.Depth > 0 && ends > 0 {
		m.Add(flowgraph.Terminate, ends)
	}
	return m
}

// minedSet collects g's single-stage exceptions. With singleOnly — g was
// mined with no supplied condition — any other exception fails the test.
func minedSet(t *testing.T, g *flowgraph.Graph, singleOnly bool) map[string]refException {
	t.Helper()
	out := map[string]refException{}
	for _, x := range g.Exceptions() {
		n := g.NodeAt(x.Prefix)
		if n == nil || n.Location != x.Node.Location || n.Depth != x.Node.Depth || n.Count != x.Node.Count ||
			(singleOnly && len(x.Condition) != 1) {
			t.Fatalf("exception %v / %v is not a single-stage exception of this graph", x.Prefix, x.Condition)
		}
		if len(x.Condition) != 1 {
			continue
		}
		id := exceptionID(x.Prefix, x.Condition[0])
		if _, dup := out[id]; dup {
			t.Fatalf("exception %s mined twice", id)
		}
		out[id] = describe(x)
	}
	return out
}

// nodesOn returns the prefixKeys of the nodes the paths run through, at
// level.
func nodesOn(level pathdb.PathLevel, paths []pathdb.Path) map[string]bool {
	out := map[string]bool{}
	for _, p := range paths {
		ap := pathdb.AggregatePath(p, level, nil)
		prefix := make([]hierarchy.NodeID, 0, len(ap))
		for _, st := range ap {
			prefix = append(prefix, st.Location)
			out[prefixKey(prefix)] = true
		}
	}
	return out
}

// twoStageConds pins the first two aggregated stages of each path, duration
// included, skipping pin pairs already seen (and recording the new ones).
func twoStageConds(level pathdb.PathLevel, paths []pathdb.Path, seen map[[2]flowgraph.StagePin]bool) [][]flowgraph.StagePin {
	var out [][]flowgraph.StagePin
	for _, p := range paths {
		ap := pathdb.AggregatePath(p, level, nil)
		if len(ap) < 2 {
			continue
		}
		c := [2]flowgraph.StagePin{
			{Depth: 1, Location: ap[0].Location, Duration: ap[0].Duration},
			{Depth: 2, Location: ap[1].Location, Duration: ap[1].Duration},
		}
		if !seen[c] {
			seen[c] = true
			out = append(out, c[:])
		}
	}
	return out
}

// listed renders g's exceptions in order, with everything Save writes.
func listed(g *flowgraph.Graph) []string {
	var out []string
	for _, x := range g.Exceptions() {
		out = append(out, fmt.Sprint(x.Prefix, x.Condition, describe(x)))
	}
	return out
}

// TestGatedMinerMatchesUngatedReference: the miner, handed every distinct
// single-stage condition of the scanned paths, applies δ per target as it
// records an exception; the ungated reference accumulates every (stage,
// duration, later stage) triple and filters only at the end. Their
// exception sets must be equal. The graphs summarize four fifths of the
// generated paths, less every path that starts where the last one does,
// and the miners scan all of them, so some scanned paths leave the tree
// (skipped) and others run through it without having been counted — which
// is why support is the scan's own count, not Node.Count.
func TestGatedMinerMatchesUngatedReference(t *testing.T) {
	mined := 0
	for seed := int64(1); seed <= 6; seed++ {
		cfg := datagen.Default()
		cfg.Seed = seed
		cfg.NumPaths = 250
		cfg.NumDims = 1
		cfg.NumSequences = 6 + int(seed)
		cfg.SeqLenMin, cfg.SeqLenMax = 2, 5
		cfg.DurationDomain = 3
		ds := datagen.MustGenerate(cfg)
		var paths []pathdb.Path
		for _, r := range ds.DB.Records {
			paths = append(paths, r.Path)
		}
		n := len(paths) * 4 / 5
		for li, level := range ds.DefaultPlan().PathLevels {
			var in, off []pathdb.Path
			offStart := pathdb.AggregatePath(paths[len(paths)-1], level, nil)[0].Location
			for i, p := range paths {
				if i < n && pathdb.AggregatePath(p, level, nil)[0].Location != offStart {
					in = append(in, p)
				} else {
					off = append(off, p)
				}
			}
			for _, minCount := range []int64{1, 2, 7} {
				for _, eps := range []float64{0, 0.1} {
					name := fmt.Sprintf("seed %d level %d minCount %d eps %g", seed, li, minCount, eps)
					g := flowgraph.Build(ds.Schema.Location, level, in, nil)
					opt := flowgraph.ExceptionOptions{Eps: eps, MinCount: minCount}
					g = mineSingleStage(g, paths, eps, minCount)
					want := referenceSingleStage(g, level, paths, nil, eps, minCount)
					if got := minedSet(t, g, true); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: gated miner found %d exceptions, ungated reference %d, or they differ", name, len(got), len(want))
					}
					mined += len(want)

					// Checked as old conditions, the same ones are checked at
					// the nodes the new paths moved. The scan still covers
					// every path, the skipped ones first; its last three, new,
					// are three of the graph's own.
					scan := slices.Concat(off, in[3:], in[:3])
					g = flowgraph.Build(ds.Schema.Location, level, in, nil)
					moved := nodesOn(level, in[:3])
					g, got := g.MineExceptions(nil, aggregate(level, scan), 3, singleStageConds(g, scan, 1), nil, opt)
					if got != len(moved) {
						t.Fatalf("%s: the miner counted %d moved nodes, the new paths run through %d", name, got, len(moved))
					}
					want = referenceSingleStage(g, level, scan, moved, eps, minCount)
					if got := minedSet(t, g, true); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: restricted gated miner found %d exceptions, reference %d, or they differ", name, len(got), len(want))
					}

					// A graph mined over base paths, then three paths folded
					// in and re-mined as new — old single- and two-stage
					// conditions at the moved nodes, fresh ones everywhere
					// (base paths match them too) — equals the union's graph
					// mined from scratch, whose single-stage part the
					// reference checks.
					seen := map[[2]flowgraph.StagePin]bool{}
					g = flowgraph.Build(ds.Schema.Location, level, paths[:n-3], nil)
					old := slices.Concat(singleStageConds(g, paths[:n], 1), twoStageConds(level, paths[:n/2], seen))
					fresh := twoStageConds(level, paths[n/2:n], seen)
					prev, _ := g.MineExceptions(nil, aggregate(level, paths[:n-3]), n-3, old, nil, opt)
					g = flowgraph.FoldPaths(prev, aggregate(level, paths[n-3:n]))
					g, m := g.MineExceptions(prev, aggregate(level, paths[:n]), 3, old, fresh, opt)
					if m == 0 {
						t.Fatalf("%s: three new paths moved no node", name)
					}
					union := flowgraph.Build(ds.Schema.Location, level, paths[:n], nil)
					union, _ = union.MineExceptions(nil, aggregate(level, paths[:n]), n, slices.Concat(old, fresh), nil, opt)
					if got, want := listed(g), listed(union); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: restricted re-mine found %d exceptions, a mine from scratch %d, or they differ", name, len(got), len(want))
					}
					want = referenceSingleStage(union, level, paths[:n], nil, eps, minCount)
					if got := minedSet(t, union, false); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: union miner found %d single-stage exceptions, ungated reference %d, or they differ", name, len(got), len(want))
					}
				}
			}
		}
	}
	if mined == 0 {
		t.Fatal("no exception was mined; the comparison is vacuous")
	}
}

// TestExceptionKeysTellWideLocationsApart is the regression test for
// exception keys that kept one byte per location: in a hierarchy of more
// than 255 concepts, exceptions at locations 3 and 259 (= 3 + 256) shared a
// key, so sealing dropped one of each pair as a duplicate and the order of
// the survivors was left to an unstable sort.
func TestExceptionKeysTellWideLocationsApart(t *testing.T) {
	loc := hierarchy.Generate("loc", 300)
	const near, far, x, y = hierarchy.NodeID(3), hierarchy.NodeID(259), hierarchy.NodeID(10), hierarchy.NodeID(11)
	level := pathdb.PathLevel{Cut: hierarchy.LevelCut(loc, loc.Depth()), Time: pathdb.TimeBase}
	// At either location, staying 1 always leads to x and staying 2 to y:
	// each duration is an exception on the node's own transition.
	var paths []pathdb.Path
	for i := 0; i < 4; i++ {
		for _, start := range []hierarchy.NodeID{far, near} {
			paths = append(paths,
				pathdb.Path{{Location: start, Duration: 1}, {Location: x, Duration: 1}},
				pathdb.Path{{Location: start, Duration: 2}, {Location: y, Duration: 1}})
		}
	}
	var order [][]string
	for run := 0; run < 5; run++ {
		g := flowgraph.Build(loc, level, paths, nil)
		g = mineSingleStage(g, paths, 0.1, 2)
		var starts []string
		count := map[hierarchy.NodeID]int{}
		for _, e := range g.Exceptions() {
			count[e.Prefix[0]]++
			starts = append(starts, fmt.Sprint(e.Prefix, e.Condition))
		}
		if count[near] == 0 || count[near] != count[far] {
			t.Fatalf("%d exceptions under location %d, %d under location %d: sealing dropped some as duplicates",
				count[near], near, count[far], far)
		}
		if !sort.SliceIsSorted(g.Exceptions(), func(i, j int) bool {
			return g.Exceptions()[i].Prefix[0] < g.Exceptions()[j].Prefix[0]
		}) {
			t.Fatalf("exceptions under location %d do not all precede those under %d: %v", near, far, starts)
		}
		order = append(order, starts)
	}
	for _, o := range order[1:] {
		if !reflect.DeepEqual(o, order[0]) {
			t.Fatalf("exception order differs between runs:\n%v\n%v", order[0], o)
		}
	}
}

// TestTreeWalksDoNotAllocate: Children is called once per node per
// comparison, Similarity once per (cell, parent) pair of the lattice, the
// transition readers once per node rendered, and Validate once per cell of
// a checked cube; none may touch the heap. Children and the transition
// readers are measured on the nodes of one thaw.
func TestTreeWalksDoNotAllocate(t *testing.T) {
	ex, g := buildExample(t)
	cell := flowgraph.Build(ex.Location, ex.BasePathLevel(), basePaths(ex)[3:6], nil)
	var n int
	var sim float64
	root := g.Root()
	if allocs := testing.AllocsPerRun(50, func() { n += len(root.Children()) }); allocs != 0 {
		t.Errorf("Node.Children allocates %v times per call", allocs)
	}
	// The readers of a node's transition distribution derive it from the
	// children in place.
	first := root.Children()[0]
	if allocs := testing.AllocsPerRun(50, func() {
		sim += root.ChildProb(first) + first.TerminationProb() + first.TransitionProb(flowgraph.Terminate) +
			root.TransitionProb(int64(first.Location)) + float64(first.Terminations())
	}); allocs != 0 {
		t.Errorf("the transition readers allocate %v times per call", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() { sim += flowgraph.Similarity(cell, g) }); allocs != 0 {
		t.Errorf("Similarity allocates %v times per call", allocs)
	}
	// Validate is Check over the graph's columns, in place.
	var err error
	if allocs := testing.AllocsPerRun(50, func() { err = g.Validate() }); allocs != 0 || err != nil {
		t.Errorf("Validate allocates %v times per call (err %v)", allocs, err)
	}
	if n == 0 || sim == 0 {
		t.Fatal("the walks did nothing")
	}
}
