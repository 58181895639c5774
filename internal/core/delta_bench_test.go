package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/datagen"
	"flowcube/internal/oracle"
	"flowcube/internal/pathdb"
)

// BenchmarkApplyDelta times one 10-record append to a cube over the
// benchmark's build dataset shape (three dimensions, 2000 base paths,
// δ = 1 % = 20 — what flowserve builds), with exceptions off and on (as
// flowserve -exceptions: the segment conditions) and redundancy marking off
// and on. Each base cube takes one in-place append before the timer, which
// derives its sub-δ ledger as a deployment's first append does; then every
// iteration patches a fresh fork of it, so iterations are the same size and
// time the steady state. Fork and database copy are outside the timer.
//
// The loaded rows start from the plain cube saved and loaded again, as
// flowserve -in x.fcb -db x.fdb serves it: first times the append that
// derives the ledger on a freshly loaded cube (the load is outside the
// timer), steady the appends after it.
func BenchmarkApplyDelta(b *testing.B) {
	const base, batchLen, batches = 2000, 10, 8
	gen := datagen.Default()
	gen.NumDims, gen.NumPaths = 3, base+batchLen*(batches+1)
	ds := datagen.MustGenerate(gen)
	batch := func(i int) []pathdb.Record {
		lo := base + i%batches*batchLen
		return ds.DB.Records[lo : lo+batchLen]
	}
	warmup := ds.DB.Records[base+batches*batchLen:]
	cfg := func(exceptions bool, tau float64) core.Config {
		return core.Config{MinCount: base / 100, Epsilon: 0.1, Tau: tau, Plan: ds.DefaultPlan(),
			MineExceptions: exceptions, SingleStageExceptions: exceptions, Workers: 2}
	}
	steady := func(b *testing.B, cube *core.Cube) {
		db := oracle.Prefix(ds.DB, base)
		if _, err := core.ApplyDelta(cube, db, warmup); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fork, forkDB := cube.Fork(), oracle.Prefix(db, db.Len())
			b.StartTimer()
			if _, err := core.ApplyDelta(fork, forkDB, batch(i)); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, exceptions := range []bool{false, true} {
		for _, tau := range []float64{0, 0.5} {
			b.Run(fmt.Sprintf("exceptions=%t/tau=%g", exceptions, tau), func(b *testing.B) {
				steady(b, oracle.Build(b, oracle.Prefix(ds.DB, base), cfg(exceptions, tau)))
			})
		}
	}
	snap := oracle.Save(b, oracle.Build(b, oracle.Prefix(ds.DB, base), cfg(false, 0)))
	load := func(b *testing.B) *core.Cube {
		cube, err := core.Load(bytes.NewReader(snap))
		if err != nil {
			b.Fatal(err)
		}
		return cube
	}
	b.Run("loaded/first", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cube, db := load(b), oracle.Prefix(ds.DB, base)
			b.StartTimer()
			if _, err := core.ApplyDelta(cube, db, batch(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("loaded/steady", func(b *testing.B) { steady(b, load(b)) })
}
