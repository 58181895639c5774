package flowgraph_test

import (
	"reflect"
	"testing"

	"flowcube/internal/flowgraph"
)

// TestRestReadsAsTree: a resting graph reads as the tree it was put to rest
// from — its columns, its rendering and its exceptions — and its readers
// thaw nothing back into it. It takes no write: a writer thaws it, and the
// thaw takes a path added and exceptions mined as the tree does, while the
// resting graph stays as it was.
func TestRestReadsAsTree(t *testing.T) {
	ex, g, f := flattenFixture(t)
	r := resting(g)
	if r.Columns() == nil || !reflect.DeepEqual(flowgraph.Flatten(r), f) {
		t.Fatal("a resting graph's columns differ from its tree's")
	}
	if r.Paths() != g.Paths() || r.String() != g.String() || r.DOT("g") != g.DOT("g") ||
		!reflect.DeepEqual(exceptionFields(r), exceptionFields(g)) {
		t.Fatal("a resting graph reads unlike its tree")
	}
	if r.Root() == r.Root() {
		t.Fatal("two readers of a resting graph share one thawed tree")
	}
	if r.Columns() == nil || !reflect.DeepEqual(flowgraph.Flatten(r), f) {
		t.Fatal("reading nodes changed the resting graph")
	}

	paths := basePaths(ex)
	writes := []struct {
		name  string
		write func(g *flowgraph.Graph)
	}{
		{"AddPath", func(g *flowgraph.Graph) { g.AddPath(paths[2]) }},
		{"MineExceptions", func(g *flowgraph.Graph) { mineSingleStage(g, paths, 0.05, 1) }},
	}
	for _, w := range writes {
		_, tree, _ := flattenFixture(t)
		w.write(tree)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s wrote to a resting graph", w.name)
				}
			}()
			w.write(r)
		}()
		thawed := r.Thaw()
		w.write(thawed)
		if !reflect.DeepEqual(flowgraph.Flatten(thawed), flowgraph.Flatten(tree)) {
			t.Fatalf("%s on a thaw differs from the tree's", w.name)
		}
		if !reflect.DeepEqual(flowgraph.Flatten(r), f) {
			t.Fatalf("%s on a thaw changed the resting graph", w.name)
		}
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
