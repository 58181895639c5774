package flowgraph_test

import (
	"math"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"flowcube/internal/flowgraph"
	"flowcube/internal/hierarchy"
	"flowcube/internal/paperex"
	"flowcube/internal/pathdb"
	"flowcube/internal/stats"
)

func basePaths(ex *paperex.Example) []pathdb.Path {
	out := make([]pathdb.Path, 0, ex.DB.Len())
	for _, r := range ex.DB.Records {
		out = append(out, r.Path)
	}
	return out
}

func buildExample(t *testing.T) (*paperex.Example, *flowgraph.Graph) {
	t.Helper()
	ex := paperex.New()
	g := flowgraph.Build(ex.Location, ex.BasePathLevel(), basePaths(ex), nil)
	return ex, g
}

// nodesOf lists every node except the virtual root, depth first, children by
// ascending location id.
func nodesOf(g *flowgraph.Graph) []*flowgraph.Node {
	var out []*flowgraph.Node
	var rec func(n *flowgraph.Node)
	rec = func(n *flowgraph.Node) {
		for _, c := range n.Children() {
			out = append(out, c)
			rec(c)
		}
	}
	rec(g.Root())
	return out
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestFigure3Distributions pins the Figure-3 annotations recomputed from
// Table 1: the factory node's duration distribution is 5:0.375 / 10:0.625
// (the figure rounds to 0.38/0.62) and its transitions split 5/8 to the
// distribution center and 3/8 to the truck.
func TestFigure3Distributions(t *testing.T) {
	ex, g := buildExample(t)
	f := g.NodeAt([]hierarchy.NodeID{ex.Location.MustLookup("f")})
	if f == nil {
		t.Fatal("factory node missing")
	}
	if f.Count != 8 {
		t.Fatalf("factory count = %d, want 8", f.Count)
	}
	if !approx(f.Durations.Prob(5), 3.0/8) || !approx(f.Durations.Prob(10), 5.0/8) {
		t.Errorf("factory durations = %s, want 5:0.375 10:0.625", &f.Durations)
	}
	d := int64(ex.Location.MustLookup("d"))
	tr := int64(ex.Location.MustLookup("t"))
	if !approx(f.TransitionProb(d), 5.0/8) || !approx(f.TransitionProb(tr), 3.0/8) {
		t.Errorf("factory transitions d:%g t:%g, want d:0.625 t:0.375", f.TransitionProb(d), f.TransitionProb(tr))
	}
	if f.TerminationProb() != 0 {
		t.Errorf("factory termination = %g, want 0", f.TerminationProb())
	}

	// The f→t branch (paths 4,5,6): truck transitions 2/3 to shelf, 1/3 to
	// warehouse — the 0.67/0.33 edge of Figure 3.
	ft := g.NodeAt([]hierarchy.NodeID{ex.Location.MustLookup("f"), ex.Location.MustLookup("t")})
	if ft == nil {
		t.Fatal("f→t node missing")
	}
	s := int64(ex.Location.MustLookup("s"))
	w := int64(ex.Location.MustLookup("w"))
	if !approx(ft.TransitionProb(s), 2.0/3) || !approx(ft.TransitionProb(w), 1.0/3) {
		t.Errorf("f→t transitions s:%g w:%g, want s:0.667 w:0.333", ft.TransitionProb(s), ft.TransitionProb(w))
	}
}

// TestFigure4CellGraph builds the flowgraph of the (outerwear, nike) cell —
// paths 4, 5, 6 — and checks Figure 4's structure: factory → truck with
// probability 1, truck → shelf 0.67 / warehouse 0.33, shelf → checkout 1.
func TestFigure4CellGraph(t *testing.T) {
	ex := paperex.New()
	cell := []pathdb.Path{ex.DB.Records[3].Path, ex.DB.Records[4].Path, ex.DB.Records[5].Path}
	g := flowgraph.Build(ex.Location, ex.BasePathLevel(), cell, nil)

	loc := func(n string) hierarchy.NodeID { return ex.Location.MustLookup(n) }
	f := g.NodeAt([]hierarchy.NodeID{loc("f")})
	if !approx(f.TransitionProb(int64(loc("t"))), 1) {
		t.Errorf("factory→truck = %g, want 1", f.TransitionProb(int64(loc("t"))))
	}
	ft := g.NodeAt([]hierarchy.NodeID{loc("f"), loc("t")})
	if !approx(ft.TransitionProb(int64(loc("s"))), 2.0/3) || !approx(ft.TransitionProb(int64(loc("w"))), 1.0/3) {
		t.Errorf("truck transitions s:%g w:%g", ft.TransitionProb(int64(loc("s"))), ft.TransitionProb(int64(loc("w"))))
	}
	fts := g.NodeAt([]hierarchy.NodeID{loc("f"), loc("t"), loc("s")})
	if !approx(fts.TransitionProb(int64(loc("c"))), 1) {
		t.Errorf("shelf→checkout = %g, want 1", fts.TransitionProb(int64(loc("c"))))
	}
	ftw := g.NodeAt([]hierarchy.NodeID{loc("f"), loc("t"), loc("w")})
	if !approx(ftw.TerminationProb(), 1) {
		t.Errorf("warehouse termination = %g, want 1", ftw.TerminationProb())
	}
}

// TestPaperExceptionTruckToWarehouse reproduces §3's worked exception: in
// the f→t branch the truck→warehouse transition is 33% in general but 50%
// for items that stayed 1 hour at the truck (paths 4 and 6).
func TestPaperExceptionTruckToWarehouse(t *testing.T) {
	ex := paperex.New()
	cell := []pathdb.Path{ex.DB.Records[3].Path, ex.DB.Records[4].Path, ex.DB.Records[5].Path}
	g := flowgraph.Build(ex.Location, ex.BasePathLevel(), cell, nil)
	g = mineSingleStage(g, cell, 0.1, 2)

	loc := func(n string) hierarchy.NodeID { return ex.Location.MustLookup(n) }
	ft := g.NodeAt([]hierarchy.NodeID{loc("f"), loc("t")})
	var found *flowgraph.Exception
	xs := g.Exceptions()
	for i, x := range xs {
		if slices.Equal(x.Prefix, []hierarchy.NodeID{loc("f"), loc("t")}) && len(x.Condition) == 1 &&
			x.Condition[0].Depth == 2 && x.Condition[0].Duration == 1 {
			found = &xs[i]
		}
	}
	if found == nil {
		t.Fatalf("truck-duration-1 exception not mined; got %d exceptions", len(g.Exceptions()))
	}
	if found.Support != 2 {
		t.Errorf("exception support = %d, want 2", found.Support)
	}
	if got := found.Transitions.Prob(int64(loc("w"))); !approx(got, 0.5) {
		t.Errorf("conditional truck→warehouse = %g, want 0.5", got)
	}
	base := ft.TransitionProb(int64(loc("w")))
	if !approx(base, 1.0/3) {
		t.Errorf("general truck→warehouse = %g, want 1/3", base)
	}
	if found.TransitionDeviation < 0.1 {
		t.Errorf("deviation %g below ε", found.TransitionDeviation)
	}
}

func TestExceptionSupportThreshold(t *testing.T) {
	ex := paperex.New()
	cell := []pathdb.Path{ex.DB.Records[3].Path, ex.DB.Records[4].Path, ex.DB.Records[5].Path}
	g := flowgraph.Build(ex.Location, ex.BasePathLevel(), cell, nil)
	g = mineSingleStage(g, cell, 0.1, 3)
	for _, x := range g.Exceptions() {
		if x.Support < 3 {
			t.Errorf("exception with support %d recorded under δ=3", x.Support)
		}
	}
}

func TestMineExceptionsForMultiPin(t *testing.T) {
	ex, g := buildExample(t)
	paths := basePaths(ex)
	loc := func(n string) hierarchy.NodeID { return ex.Location.MustLookup(n) }
	// Condition: (f,5) at depth 1 AND (d,2) at depth 2 — paths 2, 7, 8.
	// At the truck node the conditional durations are {1,2,3} vs the
	// branch-general distribution over paths 1,2,7,8 = {1,1,2,3}.
	conds := [][]flowgraph.StagePin{{
		{Depth: 1, Location: loc("f"), Duration: 5},
		{Depth: 2, Location: loc("d"), Duration: 2},
	}}
	g, _ = g.MineExceptions(nil, aggregate(g.Level(), paths), len(paths), conds, nil, flowgraph.ExceptionOptions{Eps: 0.05, MinCount: 2})
	found := false
	for _, x := range g.Exceptions() {
		if slices.Equal(x.Prefix, []hierarchy.NodeID{loc("f"), loc("d"), loc("t")}) && len(x.Condition) == 2 {
			found = true
			if x.Support != 3 {
				t.Errorf("multi-pin exception support = %d, want 3", x.Support)
			}
			if !approx(x.Durations.Prob(1), 1.0/3) {
				t.Errorf("conditional dur(1) = %g, want 1/3", x.Durations.Prob(1))
			}
		}
	}
	if !found {
		t.Errorf("multi-pin condition produced no exception at f→d→t")
	}
}

// TestAlgebraicMerge verifies Lemma 4.2: folding the flowgraphs of a
// partition reproduces the flowgraph of the whole.
func TestAlgebraicMerge(t *testing.T) {
	ex := paperex.New()
	paths := basePaths(ex)
	whole := flowgraph.Build(ex.Location, ex.BasePathLevel(), paths, nil)

	merged, err := flowgraph.Fold([]*flowgraph.Graph{
		flowgraph.Build(ex.Location, ex.BasePathLevel(), paths[:3], nil),
		flowgraph.Build(ex.Location, ex.BasePathLevel(), paths[3:6], nil),
		flowgraph.Build(ex.Location, ex.BasePathLevel(), paths[6:], nil),
	})
	if err != nil {
		t.Fatal(err)
	}

	if merged.Paths() != whole.Paths() {
		t.Fatalf("merged paths = %d, want %d", merged.Paths(), whole.Paths())
	}
	wn, mn := nodesOf(whole), nodesOf(merged)
	if len(wn) != len(mn) {
		t.Fatalf("merged has %d nodes, whole has %d", len(mn), len(wn))
	}
	for i := range wn {
		if wn[i].Location != mn[i].Location || wn[i].Count != mn[i].Count {
			t.Errorf("node %d mismatch: (%v,%d) vs (%v,%d)",
				i, mn[i].Location, mn[i].Count, wn[i].Location, wn[i].Count)
		}
		if wn[i].Durations.String() != mn[i].Durations.String() {
			t.Errorf("node %d duration dist mismatch", i)
		}
		if wn[i].Terminations() != mn[i].Terminations() {
			t.Errorf("node %d terminations mismatch", i)
		}
	}
	if d := flowgraph.Divergence(whole, merged); !approx(d, 0) {
		t.Errorf("divergence between whole and merged = %g, want 0", d)
	}
}

func TestMergeRejectsDifferentLevels(t *testing.T) {
	ex := paperex.New()
	paths := basePaths(ex)
	a := flowgraph.Build(ex.Location, ex.BasePathLevel(), paths, nil)
	b := flowgraph.Build(ex.Location, ex.TransportPathLevel(), paths, nil)
	if _, err := flowgraph.Fold([]*flowgraph.Graph{a, b}); err == nil {
		t.Errorf("folding graphs at different path levels must fail")
	}
}

func TestSimilarityProperties(t *testing.T) {
	ex := paperex.New()
	paths := basePaths(ex)
	a := flowgraph.Build(ex.Location, ex.BasePathLevel(), paths, nil)
	b := flowgraph.Build(ex.Location, ex.BasePathLevel(), paths[:4], nil)
	if s := flowgraph.Similarity(a, a); !approx(s, 1) {
		t.Errorf("self similarity = %g, want 1", s)
	}
	sab := flowgraph.Similarity(a, b)
	sba := flowgraph.Similarity(b, a)
	if !approx(sab, sba) {
		t.Errorf("similarity not symmetric: %g vs %g", sab, sba)
	}
	if sab <= 0 || sab >= 1 {
		t.Errorf("similarity of different graphs = %g, want in (0,1)", sab)
	}
}

func TestAggregatedGraphMergesStages(t *testing.T) {
	ex := paperex.New()
	paths := basePaths(ex)
	g := flowgraph.Build(ex.Location, pathdb.PathLevel{
		Cut:  hierarchy.LevelCut(ex.Location, 1),
		Time: pathdb.TimeBase,
	}, paths, nil)
	// Path 1 aggregates to factory(10) transportation(3) store(5): the d,t
	// and s,c runs merge with summed durations.
	fa := ex.Location.MustLookup("factory")
	tr := ex.Location.MustLookup("transportation")
	node := g.NodeAt([]hierarchy.NodeID{fa, tr})
	if node == nil {
		t.Fatal("factory→transportation node missing")
	}
	if node.Durations.Count(3) == 0 {
		t.Errorf("merged duration 3 (2+1) not observed: %s", &node.Durations)
	}
}

func TestRenderings(t *testing.T) {
	ex, g := buildExample(t)
	_ = ex
	s := g.String()
	if !strings.Contains(s, "f ") || !strings.Contains(s, "8 paths") {
		t.Errorf("String() output missing content:\n%s", s)
	}
	dot := g.DOT("example")
	if !strings.HasPrefix(dot, "digraph") || !strings.Contains(dot, "->") {
		t.Errorf("DOT output malformed:\n%s", dot)
	}
}

// TestDOTEscapesLocationNames: a location name holding a quote or a
// backslash stays inside its label.
func TestDOTEscapesLocationNames(t *testing.T) {
	loc := hierarchy.New("location")
	quote := loc.MustAdd(hierarchy.RootName, `a"b`)
	slash := loc.MustAdd(hierarchy.RootName, `a\b`)
	g := flowgraph.FoldPaths(flowgraph.New(loc, pathdb.PathLevel{}),
		[]pathdb.Path{{{Location: quote, Duration: 1}, {Location: slash, Duration: 2}}})
	dot := g.DOT("hostile")
	for _, line := range strings.Split(dot, "\n") {
		_, label, ok := strings.Cut(line, `[label="`)
		if !ok {
			continue
		}
		end := -1
		for i := 0; i < len(label) && end < 0; i++ {
			switch label[i] {
			case '\\':
				i++
			case '"':
				end = i
			}
		}
		if end < 0 || label[end:] != `"];` {
			t.Errorf("label does not close where its line does: %s", line)
		}
	}
	for _, want := range []string{`a\"b\ndur`, `a\\b\ndur`} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT lacks the escaped label %s:\n%s", want, dot)
		}
	}
}

// TestNodeLayout pins the size of a node, the box every prefix of every
// cell's tree costs, and of the distribution inside it: a field added to
// either is a deliberate re-pin, not a drift. A node is its location,
// depth and count, its duration distribution (one slice header and a total)
// and its child list.
func TestNodeLayout(t *testing.T) {
	if got := unsafe.Sizeof(flowgraph.Node{}); got != 80 {
		t.Errorf("flowgraph.Node is %d bytes, want 80", got)
	}
	if got := unsafe.Sizeof(stats.Multinomial{}); got != 32 {
		t.Errorf("stats.Multinomial is %d bytes, want 32", got)
	}
}
