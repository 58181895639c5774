package flowgraph_test

import (
	"reflect"
	"sync"
	"testing"

	"flowcube/internal/flowgraph"
)

// TestRestReadsAsTree: a resting graph reads as the tree it was put to rest
// from — its columns, its rendering and its exceptions — and takes writes
// as the tree does: a path added, a graph merged in and exceptions mined
// leave the columns a tree taking the same writes has. A write to a fork of
// a resting graph leaves the graph as it was.
func TestRestReadsAsTree(t *testing.T) {
	ex, g, f := flattenFixture(t)
	r := resting(g)
	if r.Columns() == nil || !reflect.DeepEqual(flowgraph.Flatten(r), f) {
		t.Fatal("a resting graph's columns differ from its tree's")
	}
	if r.Paths() != g.Paths() || r.Columns() == nil {
		t.Fatal("Paths or Flatten thawed the graph")
	}
	fork := r.Fork(1)
	fork.AddPath(ex.DB.Records[0].Path)
	if !reflect.DeepEqual(flowgraph.Flatten(r), f) {
		t.Fatal("writing a fork of a resting graph changed the graph")
	}
	if r.String() != g.String() || !reflect.DeepEqual(exceptionFields(r), exceptionFields(g)) {
		t.Fatal("a thawed graph reads unlike its tree")
	}

	paths := basePaths(ex)
	writes := []struct {
		name  string
		write func(g *flowgraph.Graph)
	}{
		{"AddPath", func(g *flowgraph.Graph) { g.AddPath(paths[2]) }},
		{"Merge", func(g *flowgraph.Graph) {
			if err := g.Merge(flowgraph.Build(ex.Location, ex.BasePathLevel(), paths[:3], nil)); err != nil {
				t.Fatal(err)
			}
		}},
		{"MineExceptions", func(g *flowgraph.Graph) { mineSingleStage(g, paths, 0.05, 1) }},
		{"ClearExceptions", func(g *flowgraph.Graph) { g.ClearExceptions() }},
	}
	for _, w := range writes {
		tree := g.Clone()
		w.write(tree)
		for _, thawed := range []bool{false, true} {
			r := resting(g)
			if thawed {
				r.Root()
			}
			w.write(r)
			if r.Columns() != nil {
				t.Fatalf("%s left the graph at rest", w.name)
			}
			if !reflect.DeepEqual(flowgraph.Flatten(r), flowgraph.Flatten(tree)) {
				t.Fatalf("%s on a resting graph (thawed first: %v) differs from the tree's", w.name, thawed)
			}
		}
	}
}

// TestConcurrentFirstThaw: readers that ask a resting graph for nodes all at
// once — Root, Exceptions and String, in different orders — get one tree,
// thawed once, and read what the tree graph reads.
func TestConcurrentFirstThaw(t *testing.T) {
	_, g, _ := flattenFixture(t)
	want, wantXs := g.String(), g.Exceptions()
	r := resting(g)
	const readers = 8
	roots := make([]*flowgraph.Node, readers)
	xnodes := make([]*flowgraph.Node, readers)
	strs := make([]string, readers)
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			if i%2 == 0 {
				strs[i] = r.String()
				roots[i] = r.Root()
				xnodes[i] = r.Exceptions()[0].Node
			} else {
				xnodes[i] = r.Exceptions()[0].Node
				roots[i] = r.Root()
				strs[i] = r.String()
			}
		}(i)
	}
	start.Done()
	wg.Wait()
	for i := range roots {
		if roots[i] != roots[0] || xnodes[i] != xnodes[0] {
			t.Fatal("concurrent first readers got different trees")
		}
		if strs[i] != want {
			t.Fatalf("reader %d renders\n%s\nthe tree renders\n%s", i, strs[i], want)
		}
	}
	if xnodes[0] != r.NodeAt(wantXs[0].Prefix) {
		t.Fatal("a thawed exception names a node outside the thawed tree")
	}
	if r.Columns() != nil || !reflect.DeepEqual(flowgraph.Flatten(r), flowgraph.Flatten(g)) {
		t.Fatal("a thawed graph must be its tree, and drop its columns")
	}
}

// exceptionFields returns g's exceptions with each Node replaced by its
// location, depth and count, which is what tells two trees' nodes apart.
func exceptionFields(g *flowgraph.Graph) []any {
	var out []any
	for _, x := range g.Exceptions() {
		n := [3]int64{int64(x.Node.Location), int64(x.Node.Depth), x.Node.Count}
		x.Node = nil
		out = append(out, n, x)
	}
	return out
}
