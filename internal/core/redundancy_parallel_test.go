package core_test

import (
	"math"
	"reflect"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/datagen"
)

type marking struct {
	similarity uint64
	redundant  bool
}

func markings(cube *core.Cube) map[core.CellRefKey]marking {
	out := map[core.CellRefKey]marking{}
	for key, cb := range cube.Cuboids {
		for id, cell := range cb.Cells {
			out[core.CellRefKey{Spec: key, ID: id}] = marking{math.Float64bits(cell.Similarity), cell.Redundant}
		}
	}
	return out
}

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
		cube, err := core.Build(ds.DB, core.Config{MinSupport: 0.02, Plan: ds.DefaultPlan(), Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return cube
	}
	const tau = 0.5

	seq := build(1)
	nSeq := seq.MarkRedundancy(tau)
	want := markings(seq)
	if nSeq == 0 || nSeq == len(want) {
		t.Fatalf("%d of %d cells redundant: the fixture does not tell marked from unmarked", nSeq, len(want))
	}

	par := build(4)
	if n := par.MarkRedundancy(tau); n != nSeq {
		t.Errorf("4 workers marked %d cells redundant, 1 worker %d", n, nSeq)
	}
	if got := markings(par); !reflect.DeepEqual(got, want) {
		t.Error("markings of a built cube differ between 1 and 4 workers")
	}

	base := build(4)
	unmarked := markings(base)
	fork := base.Fork()
	if n := fork.MarkRedundancy(tau); n != nSeq {
		t.Errorf("the fork marked %d cells redundant, want %d", n, nSeq)
	}
	if got := markings(fork); !reflect.DeepEqual(got, want) {
		t.Error("markings of a forked cube differ from those of a built one")
	}
	if got := markings(base); !reflect.DeepEqual(got, unmarked) {
		t.Error("marking the fork changed cells of the generation it was forked from")
	}
	if fork.CellsCopied() != len(want) || base.CellsCopied() != 0 {
		t.Errorf("fork copied %d cells and its parent %d, want %d and 0", fork.CellsCopied(), base.CellsCopied(), len(want))
	}
}
