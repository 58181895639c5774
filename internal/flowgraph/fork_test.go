package flowgraph_test

import (
	"reflect"
	"testing"

	"flowcube/internal/flowgraph"
	"flowcube/internal/pathdb"
)

// TestForkPathCopies pins the path copy: a fork that adds paths reads like a
// deep copy that added the same paths, the graph it was forked from reads
// as it did before, and the number of nodes copied is the length of the
// path plus the root — once.
func TestForkPathCopies(t *testing.T) {
	ex, g := buildExample(t)
	before := flowgraph.Flatten(g)
	extra := []pathdb.Path{ex.DB.Records[0].Path, ex.DB.Records[3].Path, ex.DB.Records[3].Path}

	want := g.Clone()
	fork := g.Fork(1)
	for i, p := range extra {
		agg := pathdb.AggregatePath(p, ex.BasePathLevel(), nil)
		copiedBefore := fork.NodesCopied()
		if i%2 == 0 {
			fork.AddPath(p)
		} else {
			fork.AddAggregated(agg)
		}
		want.AddPath(p)
		got := fork.NodesCopied() - copiedBefore
		switch i {
		case 0:
			// A freshly forked graph owns nothing: the root and every node
			// on the path are copied.
			if got != len(agg)+1 {
				t.Errorf("first path: copied %d nodes, want %d", got, len(agg)+1)
			}
		case 2:
			// The same path again runs over nodes the fork already owns.
			if got != 0 {
				t.Errorf("repeated path: copied %d nodes, want 0", got)
			}
		}
	}
	if !reflect.DeepEqual(flowgraph.Flatten(fork), flowgraph.Flatten(want)) {
		t.Error("fork + AddPath flattens differently from Clone + AddPath")
	}
	if !reflect.DeepEqual(flowgraph.Flatten(g), before) {
		t.Error("adding paths to the fork changed the graph it was forked from")
	}
	for name, gr := range map[string]*flowgraph.Graph{"parent": g, "fork": fork} {
		if err := gr.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if g.NodesCopied() != 0 {
		t.Errorf("a graph that was never forked reports %d copied nodes", g.NodesCopied())
	}
}

// TestForkRepointsExceptions: an exception's Node must be the node of the
// graph that holds the exception, so that the node-general distributions
// read through it are that generation's. A path copy on the exception's
// prefix moves the fork's exception to the copy and leaves the parent's
// where it was.
func TestForkRepointsExceptions(t *testing.T) {
	ex, g := buildExample(t)
	mineSingleStage(g, basePaths(ex), 0.1, 2)
	if len(g.Exceptions()) == 0 {
		t.Fatal("fixture mined no exceptions")
	}
	before := flowgraph.Flatten(g)

	fork := g.Fork(1)
	for _, r := range ex.DB.Records {
		fork.AddPath(r.Path)
	}
	for name, gr := range map[string]*flowgraph.Graph{"parent": g, "fork": fork} {
		for i, x := range gr.Exceptions() {
			n := gr.NodeAt(x.Prefix)
			if n != x.Node {
				t.Errorf("%s: exception %d at %v names a node outside its graph", name, i, x.Prefix)
				continue
			}
			if n.Durations.Total() != n.Count || n.Terminations() < 0 {
				t.Errorf("%s: exception %d node distribution or children disagree with its count", name, i)
			}
		}
	}
	// Every base path was added a second time, so every exception node of
	// the fork was copied and now counts double.
	for i, x := range fork.Exceptions() {
		if px := g.Exceptions()[i]; x.Node == px.Node || x.Node.Count != 2*px.Node.Count {
			t.Errorf("exception %d: fork node count %d, parent's %d", i, x.Node.Count, px.Node.Count)
		}
	}
	if !reflect.DeepEqual(flowgraph.Flatten(g), before) {
		t.Error("path copies in the fork changed the parent's flat form")
	}
	// The fork's flat form indexes exceptions by node; it must equal a deep
	// copy's that took the same paths.
	want := g.Clone()
	for _, r := range ex.DB.Records {
		want.AddPath(r.Path)
	}
	if !reflect.DeepEqual(flowgraph.Flatten(fork), flowgraph.Flatten(want)) {
		t.Error("fork with exceptions flattens differently from the deep copy")
	}
}
