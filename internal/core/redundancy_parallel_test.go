package core_test

import (
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/datagen"
	"flowcube/internal/oracle"
)

// TestMarkRedundancyIsWorkerCountInvariant: marking fans the cells out over
// Config.Workers, each job writing its own cell and reading its parents'
// graphs. One worker and four must leave the same Similarity bits and the
// same Redundant flags — on a cube fresh from Build, which owns every cell,
// and on a Fork, which owns none and must copy each cell it marks instead of
// writing through to the generation it was forked from. go test -race
// (scripts/check.sh) makes a shared write a failure rather than a hazard.
func TestMarkRedundancyIsWorkerCountInvariant(t *testing.T) {
	cfg := datagen.Default()
	cfg.Seed = 3
	cfg.NumPaths = 600
	cfg.NumDims = 2
	ds := datagen.MustGenerate(cfg)
	build := func(workers int) *core.Cube {
		return oracle.Build(t, ds.DB, core.Config{MinSupport: 0.02, Plan: ds.DefaultPlan(), Workers: workers})
	}
	const tau = 0.5

	seq := build(1)
	nSeq := seq.MarkRedundancy(tau)
	if nSeq == 0 || nSeq == seq.NumCells() {
		t.Fatalf("%d of %d cells redundant: the fixture does not tell marked from unmarked", nSeq, seq.NumCells())
	}

	par := build(4)
	if n := par.MarkRedundancy(tau); n != nSeq {
		t.Errorf("4 workers marked %d cells redundant, 1 worker %d", n, nSeq)
	}
	oracle.Same(t, "the markings of a built cube on 4 workers against 1", seq, par)

	base := build(4)
	unmarked := oracle.Save(t, base)
	fork := base.Fork()
	if n := fork.MarkRedundancy(tau); n != nSeq {
		t.Errorf("the fork marked %d cells redundant, want %d", n, nSeq)
	}
	oracle.Same(t, "the markings of a forked cube against a built one", seq, fork)
	if d := oracle.Diff(unmarked, oracle.Save(t, base)); d != "" {
		t.Error("marking the fork changed cells of the generation it was forked from: " + d)
	}
	if fork.CellsCopied() != seq.NumCells() || base.CellsCopied() != 0 {
		t.Errorf("fork copied %d cells and its parent %d, want %d and 0", fork.CellsCopied(), base.CellsCopied(), seq.NumCells())
	}
}
