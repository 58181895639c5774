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

// TestDerivedLedgerIDsMatchBuild: a snapshot carries no record ids, and the
// sub-δ ledger a loaded exceptions cube derives from the build database
// must give every cell exactly the record ids Build assigns it, at every
// worker count.
func TestDerivedLedgerIDsMatchBuild(t *testing.T) {
	gen := datagen.Default()
	gen.Seed, gen.NumPaths, gen.NumDims = 7, 600, 2
	ds := datagen.MustGenerate(gen)
	for _, workers := range []int{1, 3} {
		built := oracle.Build(t, ds.DB, core.Config{MinSupport: 0.02, Epsilon: 0.1, Tau: 0.5, Plan: ds.DefaultPlan(),
			MineExceptions: true, Workers: workers})
		assigned := built.AssignCells(ds.DB)
		loaded := oracle.Reopen(t, built, false)
		loaded.Config.Workers = workers
		ledger := loaded.DeriveLedger(ds.DB)
		cells := 0
		for key, cb := range built.Cuboids {
			for _, cell := range cb.Cells {
				if got := ledger.IDs(cb.Spec, cell.Values); !slices.Equal(got, assigned[cell]) || len(got) != int(cell.Count) {
					t.Fatalf("workers %d, cuboid %s, cell %v: derived ids %v, built %v (count %d)",
						workers, key, cell.Values, got, assigned[cell], cell.Count)
				}
				cells++
			}
		}
		if cells == 0 {
			t.Fatal("fixture exercises nothing: no cells")
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
			MineExceptions: true}},
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
