package flowgraph_test

import (
	"reflect"
	"testing"

	"flowcube/internal/flowgraph"
)

// TestRestReadsAsTree: a graph reads as the tree it summarizes — its
// columns and its exceptions are the reference tree's, built and mined over
// the same paths — and its readers thaw a fresh tree per call and write
// nothing back into the columns.
func TestRestReadsAsTree(t *testing.T) {
	ex, g, f := flattenFixture(t)
	raw := basePaths(ex)
	paths := aggregate(ex.BasePathLevel(), raw)
	ref := flowgraph.NewRef()
	for _, p := range paths {
		ref.Add(p)
	}
	ref.MineExceptions(paths, len(paths), singleStageConds(g, raw, 1), nil, flowgraph.ExceptionOptions{Eps: 0.1, MinCount: 2})
	want := ref.Flat()
	if err := sameColumns(f, want); err != nil {
		t.Fatalf("a graph's columns differ from its tree's: %v", err)
	}
	if g.Paths() != ref.Paths() || !reflect.DeepEqual(exceptionFields(g.Exceptions()), exceptionFields(ref.Exceptions())) {
		t.Fatal("a graph reads unlike its tree")
	}
	if g.Root() == g.Root() {
		t.Fatal("two readers of a graph share one thawed tree")
	}
	_, _ = g.String(), g.DOT("g")
	if g.Columns() != f {
		t.Fatal("reading nodes replaced the graph's columns")
	}
	if err := sameColumns(f, want); err != nil {
		t.Fatalf("reading nodes changed the graph's columns: %v", err)
	}
}

// exceptionFields returns the exceptions with each Node replaced by its
// location, depth and count, which is what tells two trees' nodes apart.
func exceptionFields(xs []flowgraph.Exception) []any {
	var out []any
	for _, x := range xs {
		n := [3]int64{int64(x.Node.Location), int64(x.Node.Depth), x.Node.Count}
		x.Node = nil
		out = append(out, n, x)
	}
	return out
}
