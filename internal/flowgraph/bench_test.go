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

// BenchmarkSimilarity times the comparison MarkRedundancy makes of a
// cell's graph with its parent's.
func BenchmarkSimilarity(b *testing.B) {
	cell, parent, _ := benchGraphs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += flowgraph.Similarity(cell, parent)
	}
}

// BenchmarkFold times the fold of a plain append — a cell's graph (every
// third path) with a ten-path batch laid out as columns
// (FoldPaths) — and the fold that rebuilds the parent from the three
// disjoint thirds at query time.
func BenchmarkFold(b *testing.B) {
	cfg := datagen.Default()
	cfg.NumPaths = 2000
	cfg.NumDims = 1
	ds := datagen.MustGenerate(cfg)
	level := ds.DefaultPlan().PathLevels[0]
	parts := make([][]pathdb.Path, 3)
	for i, r := range ds.DB.Records {
		parts[i%3] = append(parts[i%3], r.Path)
	}
	thirds := make([]*flowgraph.Graph, 3)
	for k, part := range parts {
		thirds[k] = flowgraph.Build(ds.Schema.Location, level, part, nil)
	}
	batch := make([]pathdb.Path, 10)
	for i := range batch {
		batch[i] = pathdb.AggregatePath(parts[1][i], level, nil)
	}
	for _, bc := range []struct {
		name string
		fold func() (*flowgraph.Graph, error)
	}{
		{"append", func() (*flowgraph.Graph, error) { return flowgraph.FoldPaths(thirds[0], batch), nil }},
		{"thirds", func() (*flowgraph.Graph, error) { return flowgraph.Fold(thirds) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, err := bc.fold()
				if err != nil {
					b.Fatal(err)
				}
				benchSink += float64(g.Paths())
			}
		})
	}
}

// BenchmarkMineExceptions checks the single-stage conditions at δ = 1 % of
// the paths, the one-pin frequent segments a cell supplies, on the parent's
// graph: from scratch, and restricted to the nodes the last ten paths moved
// (the re-mine of an append), carrying the graph's other exceptions over.
func BenchmarkMineExceptions(b *testing.B) {
	_, parent, paths := benchGraphs(b)
	opt := flowgraph.ExceptionOptions{Eps: 0.1, MinCount: int64(len(paths) / 100)}
	conds := singleStageConds(parent, paths, opt.MinCount)
	aps := aggregate(parent.Level(), paths)
	mined, _ := parent.MineExceptions(nil, aps, len(aps), conds, nil, opt)
	for _, bc := range []struct {
		name  string
		added int
	}{{"full", len(paths)}, {"restricted", 10}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, _ := mined.MineExceptions(mined, aps, bc.added, conds, nil, opt)
				benchSink += float64(len(g.Columns().ExcNode))
			}
		})
	}
}
