package flowgraph_test

import (
	"testing"

	"flowcube/internal/datagen"
	"flowcube/internal/flowgraph"
	"flowcube/internal/pathdb"
)

// benchGraphs builds the two graphs a redundancy comparison sees — a cell
// (every third path) and its parent (all of them) — at the leaf path level
// of a generated dataset, and returns the parent's paths with them.
func benchGraphs(b *testing.B) (cell, parent *flowgraph.Graph, paths []pathdb.Path) {
	b.Helper()
	cfg := datagen.Default()
	cfg.NumPaths = 2000
	cfg.NumDims = 1
	ds := datagen.MustGenerate(cfg)
	var third []pathdb.Path
	for i, r := range ds.DB.Records {
		paths = append(paths, r.Path)
		if i%3 == 0 {
			third = append(third, r.Path)
		}
	}
	level := ds.DefaultPlan().PathLevels[0]
	return flowgraph.Build(ds.Schema.Location, level, third, nil),
		flowgraph.Build(ds.Schema.Location, level, paths, nil), paths
}

var benchSink float64

func BenchmarkSimilarity(b *testing.B) {
	cell, parent, _ := benchGraphs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += flowgraph.Similarity(cell, parent)
	}
}

// BenchmarkMineExceptions checks the single-stage conditions at δ = 1 % of
// the paths, the one-pin frequent segments a cell supplies: from scratch,
// and restricted to the nodes the last ten paths moved (the re-mine of an
// append).
func BenchmarkMineExceptions(b *testing.B) {
	_, parent, paths := benchGraphs(b)
	opt := flowgraph.ExceptionOptions{Eps: 0.1, MinCount: int64(len(paths) / 100)}
	conds := singleStageConds(parent, paths, opt.MinCount)
	for _, bc := range []struct {
		name  string
		added int
	}{{"full", len(paths)}, {"restricted", 10}} {
		b.Run(bc.name, func(b *testing.B) {
			parent.MineExceptions(paths, len(paths), conds, nil, opt)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				parent.MineExceptions(paths, bc.added, conds, nil, opt)
				benchSink += float64(len(parent.Exceptions()))
			}
		})
	}
}
