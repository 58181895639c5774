package flowgraph_test

import (
	"testing"

	"flowcube/internal/flowgraph"
	"flowcube/internal/paperex"
	"flowcube/internal/pathdb"
)

func TestValidateBuiltGraphs(t *testing.T) {
	ex := paperex.New()
	paths := basePaths(ex)
	for _, level := range []pathdb.PathLevel{
		ex.BasePathLevel(), ex.TransportPathLevel(), ex.StorePathLevel(),
	} {
		g := flowgraph.Build(ex.Location, level, paths, nil)
		if err := g.Validate(); err != nil {
			t.Errorf("built graph at %s invalid: %v", level.Key(), err)
		}
	}
	// Folded graphs stay valid.
	a, err := flowgraph.Fold([]*flowgraph.Graph{
		flowgraph.Build(ex.Location, ex.BasePathLevel(), paths[:4], nil),
		flowgraph.Build(ex.Location, ex.BasePathLevel(), paths[4:], nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Errorf("folded graph invalid: %v", err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	ex := paperex.New()
	g := flowgraph.Build(ex.Location, ex.BasePathLevel(), basePaths(ex), nil)
	// Give a node inconsistent counts, written through the graph's own
	// columns as only a test may: Validate must object.
	f := g.Columns()
	f.Counts = append([]int64(nil), f.Counts...)
	f.Counts[1] = 99
	if err := g.Validate(); err == nil {
		t.Errorf("corrupted graph validated")
	}
}
