package core_test

import (
	"bytes"
	"fmt"
	"runtime"
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
// iteration patches a fork of the cube the previous one left, over one
// growing database, as a server's commit loop does, and times the steady
// state. The fork is outside the timer.
//
// The loaded rows start from the plain cube saved and loaded again, as
// flowserve -in x.fcb -db x.fdb -workers 2 serves it (a snapshot does not
// carry Workers; the server sets it on the cube it loads): first times the
// append that derives the ledger on a freshly loaded cube (the load is
// outside the timer), steady the appends after it. exceptions/first is
// first over the exceptions cube, whose ledger also keeps record ids and
// stage transactions.
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
			MineExceptions: exceptions, Workers: 2}
	}
	steady := func(b *testing.B, cube *core.Cube) {
		db := oracle.Prefix(ds.DB, base)
		if _, err := core.ApplyDelta(cube, db, warmup); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cube = cube.Fork()
			b.StartTimer()
			if _, err := core.ApplyDelta(cube, db, batch(i)); err != nil {
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
	snaps := map[bool][]byte{}
	for _, exceptions := range []bool{false, true} {
		snaps[exceptions] = oracle.Save(b, oracle.Build(b, oracle.Prefix(ds.DB, base), cfg(exceptions, 0)))
	}
	load := func(b *testing.B, exceptions bool) *core.Cube {
		cube, err := core.Load(bytes.NewReader(snaps[exceptions]))
		if err != nil {
			b.Fatal(err)
		}
		cube.Config.Workers = 2
		return cube
	}
	first := func(exceptions bool) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cube, db := load(b, exceptions), oracle.Prefix(ds.DB, base)
				b.StartTimer()
				if _, err := core.ApplyDelta(cube, db, batch(i)); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("loaded/first", first(false))
	b.Run("loaded/steady", func(b *testing.B) { steady(b, load(b, false)) })
	b.Run("loaded/exceptions/first", first(true))
}

// BenchmarkLiveHeap measures what a built cube keeps: the live heap
// (HeapAlloc after two collections, in MB of 10^6 bytes) once the plain
// cube of the ingest_mixed workload is built — three dimensions, 2000
// paths, δ = 20, Workers 2, as flowserve -workers 2 builds it — and again
// after 200 ten-record appends of fresh records, each to a fork of the cube
// the last one left, as flowserve's commit loop makes them, the older
// generations dropped (plain); and once the same database's cube is built
// in flowquery's "-exceptions -tau 0.5" configuration, the build workload's
// (exceptions+tau); and once the plain cube is saved, dropped and read back
// with Load, as flowserve -in x.fcb serves it (loaded). The generated
// dataset and the database are live in every figure.
func BenchmarkLiveHeap(b *testing.B) {
	const base, batchLen, batches = 2000, 10, 200
	gen := datagen.Default()
	gen.NumDims, gen.NumPaths = 3, base+batchLen*batches
	ds := datagen.MustGenerate(gen)
	cfg := core.Config{MinCount: base / 100, Epsilon: 0.1, Plan: ds.DefaultPlan(), Workers: 2}
	live := func() float64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) / 1e6
	}
	b.Run("plain", func(b *testing.B) {
		var built, after float64
		for i := 0; i < b.N; i++ {
			db := oracle.Prefix(ds.DB, base)
			cube := oracle.Build(b, db, cfg)
			built = live()
			for k := 0; k < batches; k++ {
				cube = cube.Fork()
				if _, err := core.ApplyDelta(cube, db, ds.DB.Records[base+k*batchLen:base+(k+1)*batchLen]); err != nil {
					b.Fatal(err)
				}
			}
			after = live()
			runtime.KeepAlive(cube)
		}
		b.ReportMetric(built, "built-MB")
		b.ReportMetric(after, "after-MB")
	})
	b.Run("exceptions+tau", func(b *testing.B) {
		cfg := cfg
		cfg.MineExceptions, cfg.Tau = true, 0.5
		var built float64
		for i := 0; i < b.N; i++ {
			cube := oracle.Build(b, oracle.Prefix(ds.DB, base), cfg)
			built = live()
			runtime.KeepAlive(cube)
		}
		b.ReportMetric(built, "built-MB")
	})
	b.Run("loaded", func(b *testing.B) {
		var built, loaded float64
		for i := 0; i < b.N; i++ {
			cube := oracle.Build(b, oracle.Prefix(ds.DB, base), cfg)
			built = live()
			cube, err := core.Load(bytes.NewReader(oracle.Save(b, cube)))
			if err != nil {
				b.Fatal(err)
			}
			loaded = live()
			runtime.KeepAlive(cube)
		}
		b.ReportMetric(built, "built-MB")
		b.ReportMetric(loaded, "loaded-MB")
	})
}
