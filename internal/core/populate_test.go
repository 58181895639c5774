package core_test

import (
	"fmt"
	"slices"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/datagen"
	"flowcube/internal/oracle"
)

// TestPopulateParallelMatchesSequential: the sharded record→cell assignment
// must produce byte-identical cubes at every worker count — the same tids in
// the same order, identical flowgraphs, identical snapshots.
func TestPopulateParallelMatchesSequential(t *testing.T) {
	base := core.Config{
		MinCount:       2,
		Epsilon:        0.1,
		MineExceptions: true,
		Workers:        1,
	}
	_, seq := oracle.Table1(t, oracle.Cuts, base)
	for _, workers := range []int{2, 4, 8} {
		cfg := base
		cfg.Workers = workers
		_, cube := oracle.Table1(t, oracle.Cuts, cfg)
		oracle.Same(t, fmt.Sprintf("workers=%d against the sequential build", workers), seq, cube)
	}
}

// TestRebuildTIDsMatchesBuild: a snapshot carries no tids, and RebuildTIDs
// over the build database must give every cell of the loaded cube exactly
// the record ids Build assigned it — also after Compress, when cuboids of
// one item level no longer hold the same cells. Build keeps tids only when
// it mines exceptions, so that is the build compared against.
func TestRebuildTIDsMatchesBuild(t *testing.T) {
	gen := datagen.Default()
	gen.Seed, gen.NumPaths, gen.NumDims = 7, 600, 2
	ds := datagen.MustGenerate(gen)
	for _, compress := range []bool{false, true} {
		for _, workers := range []int{1, 3} {
			built := oracle.Build(t, ds.DB, core.Config{MinSupport: 0.02, Epsilon: 0.1, Tau: 0.5, Plan: ds.DefaultPlan(),
				MineExceptions: true, Workers: workers})
			if compress && built.Compress() == 0 {
				t.Fatal("fixture exercises nothing: no redundant cell")
			}
			loaded := oracle.Reopen(t, built, false)
			loaded.RebuildTIDs(ds.DB)
			if !loaded.HaveTIDs() {
				t.Fatal("HaveTIDs false after RebuildTIDs")
			}
			cells := 0
			for key, cb := range built.Cuboids {
				lcb := loaded.Cuboids[key]
				if lcb == nil || len(lcb.Cells) != len(cb.Cells) {
					t.Fatalf("compress %t: cuboid %s does not round-trip", compress, key)
				}
				for id, cell := range cb.Cells {
					if got := lcb.Cells[id].TIDs(); !slices.Equal(got, cell.TIDs()) || len(got) != int(cell.Count) {
						t.Fatalf("compress %t, workers %d, cuboid %s, cell %v: rebuilt tids %v, built %v (count %d)",
							compress, workers, key, cell.Values, got, cell.TIDs(), cell.Count)
					}
					cells++
				}
			}
			if cells == 0 {
				t.Fatal("fixture exercises nothing: no cells")
			}
		}
	}
}

// TestBuildKeepsTIDsOnlyForExceptions: past populate only exception mining
// reads a cell's tids, so a build without it drops them and says so.
func TestBuildKeepsTIDsOnlyForExceptions(t *testing.T) {
	for _, exceptions := range []bool{false, true} {
		_, cube := oracle.Table1(t, oracle.Cuts, core.Config{MinCount: 2, Epsilon: 0.1, MineExceptions: exceptions})
		if cube.HaveTIDs() != exceptions {
			t.Errorf("exceptions=%t: HaveTIDs %t", exceptions, cube.HaveTIDs())
		}
		for key, cb := range cube.Cuboids {
			for _, cell := range cb.Cells {
				if got := len(cell.TIDs()); (got > 0) != exceptions || (exceptions && got != int(cell.Count)) {
					t.Fatalf("exceptions=%t: cuboid %s, cell %v holds %d tids (count %d)", exceptions, key, cell.Values, got, cell.Count)
				}
			}
		}
	}
}

// BenchmarkBuild times Build on the benchmark's build dataset shape (three
// dimensions, 2000 paths, the default plan, two workers): at δ = 20 with
// exceptions and redundancy off, so populate is a visible share of the time;
// and in flowquery's configuration for
// "-exceptions -tau 0.5" (δ = 1 %, ε = 0.1, τ = 0.5), the in-process cost of
// the build workload's flowquery run less reading and saving.
func BenchmarkBuild(b *testing.B) {
	gen := datagen.Default()
	gen.NumDims, gen.NumPaths = 3, 2000
	ds := datagen.MustGenerate(gen)
	for _, bc := range []struct {
		name string
		cfg  core.Config
	}{
		{"plain", core.Config{MinCount: 20}},
		{"exceptions+tau", core.Config{MinSupport: 0.01, Epsilon: 0.1, Tau: 0.5,
			MineExceptions: true, SingleStageExceptions: true}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := bc.cfg
			cfg.Plan, cfg.Workers = ds.DefaultPlan(), 2
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cube := oracle.Build(b, ds.DB, cfg)
				if i == 0 {
					b.ReportMetric(float64(cube.NumCells()), "cells")
				}
			}
		})
	}
}
