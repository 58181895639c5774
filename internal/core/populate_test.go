package core_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/datagen"
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
	_, seq := buildExample(t, base)
	want, wantLen := saveDigest(t, seq)
	for _, workers := range []int{2, 4, 8} {
		cfg := base
		cfg.Workers = workers
		_, cube := buildExample(t, cfg)
		got, gotLen := saveDigest(t, cube)
		if got != want {
			t.Fatalf("workers=%d: snapshot %x (%d bytes) differs from sequential %x (%d bytes)",
				workers, got, gotLen, want, wantLen)
		}
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
			built, err := core.Build(ds.DB, core.Config{MinSupport: 0.02, Epsilon: 0.1, Tau: 0.5, Plan: ds.DefaultPlan(),
				MineExceptions: true, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if compress && built.Compress() == 0 {
				t.Fatal("fixture exercises nothing: no redundant cell")
			}
			var buf bytes.Buffer
			if err := built.Save(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := core.Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
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
		_, cube := buildExample(t, core.Config{MinCount: 2, Epsilon: 0.1, MineExceptions: exceptions})
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
// dimensions, 2000 paths, δ = 20, the default plan, two workers) without and
// with the sub-δ ledger; exceptions and redundancy are off, so populate is a
// visible share of the time.
func BenchmarkBuild(b *testing.B) {
	gen := datagen.Default()
	gen.NumDims, gen.NumPaths = 3, 2000
	ds := datagen.MustGenerate(gen)
	for _, ledger := range []bool{false, true} {
		b.Run(fmt.Sprintf("ledger=%t", ledger), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cube, err := core.Build(ds.DB, core.Config{MinCount: 20, Plan: ds.DefaultPlan(), Workers: 2, DeltaLedger: ledger})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(cube.NumCells()), "cells")
					b.ReportMetric(float64(cube.Ledger().Size()), "ledger")
				}
			}
		})
	}
}
