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

// mineSingleStage mines g's single-stage exceptions over paths from
// scratch.
func mineSingleStage(g *flowgraph.Graph, paths []pathdb.Path, eps float64, minCount int64) {
	g.MineExceptions(paths, len(paths), singleStageConds(g, paths, 1), nil, flowgraph.ExceptionOptions{Eps: eps, MinCount: minCount})
}

// referenceSingleStage is the single-stage miner without the δ gate: it
// accumulates the conditional distributions of every (stage, duration,
// later stage) triple of every scanned path that lies in the graph, and
// filters on (ε, δ) only at the end. targets nil means every target.
func referenceSingleStage(g *flowgraph.Graph, level pathdb.PathLevel, paths []pathdb.Path, targets map[*flowgraph.Node]bool, eps float64, minCount int64) map[string]refException {
	type agg struct {
		prefix  []hierarchy.NodeID
		pin     flowgraph.StagePin
		target  *flowgraph.Node
		dur, tr stats.Multinomial
	}
	aggs := map[string]*agg{}
	for _, p := range paths {
		ap := pathdb.AggregatePath(p, level, nil)
		prefix := make([]hierarchy.NodeID, len(ap))
		for i, st := range ap {
			prefix[i] = st.Location
		}
		if len(ap) == 0 || g.NodeAt(prefix) == nil {
			continue
		}
		for i := range ap {
			pin := flowgraph.StagePin{Depth: i + 1, Location: ap[i].Location, Duration: ap[i].Duration}
			for j := i; j < len(ap); j++ {
				target := g.NodeAt(prefix[:j+1])
				if targets != nil && !targets[target] {
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
		devD := a.dur.MaxDeviation(a.target.Durations)
		devT := a.tr.MaxDeviation(a.target.Transitions)
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

// minedSet collects g's single-stage exceptions. With singleOnly — g was
// mined with no supplied condition — any other exception fails the test.
func minedSet(t *testing.T, g *flowgraph.Graph, singleOnly bool) map[string]refException {
	t.Helper()
	out := map[string]refException{}
	for _, x := range g.Exceptions() {
		if g.NodeAt(x.Prefix) != x.Node || (singleOnly && len(x.Condition) != 1) {
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

// nodesOn returns the nodes of g the paths run through, at g's level.
func nodesOn(g *flowgraph.Graph, level pathdb.PathLevel, paths []pathdb.Path) map[*flowgraph.Node]bool {
	out := map[*flowgraph.Node]bool{}
	for _, p := range paths {
		ap := pathdb.AggregatePath(p, level, nil)
		prefix := make([]hierarchy.NodeID, 0, len(ap))
		for _, st := range ap {
			prefix = append(prefix, st.Location)
			out[g.NodeAt(prefix)] = true
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
					mineSingleStage(g, paths, eps, minCount)
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
					moved := nodesOn(g, level, in[:3])
					g.ClearExceptions()
					if got := g.MineExceptions(scan, 3, singleStageConds(g, scan, 1), nil, opt); got != len(moved) {
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
					g.MineExceptions(paths[:n-3], n-3, old, nil, opt)
					for _, p := range paths[n-3 : n] {
						g.AddPath(p)
					}
					if moved := g.MineExceptions(paths[:n], 3, old, fresh, opt); moved == 0 {
						t.Fatalf("%s: three new paths moved no node", name)
					}
					union := flowgraph.Build(ds.Schema.Location, level, paths[:n], nil)
					union.MineExceptions(paths[:n], n, slices.Concat(old, fresh), nil, opt)
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
		mineSingleStage(g, paths, 0.1, 2)
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
// comparison, and Similarity once per (cell, parent) pair of the lattice;
// neither may touch the heap.
func TestTreeWalksDoNotAllocate(t *testing.T) {
	ex, g := buildExample(t)
	cell := flowgraph.Build(ex.Location, ex.BasePathLevel(), basePaths(ex)[3:6], nil)
	var n int
	var sim float64
	if allocs := testing.AllocsPerRun(50, func() { n += len(g.Root().Children()) }); allocs != 0 {
		t.Errorf("Node.Children allocates %v times per call", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() { sim += flowgraph.Similarity(cell, g) }); allocs != 0 {
		t.Errorf("Similarity allocates %v times per call", allocs)
	}
	if n == 0 || sim == 0 {
		t.Fatal("the walks did nothing")
	}
}
