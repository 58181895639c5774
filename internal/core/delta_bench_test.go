package core_test

import (
	"fmt"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/datagen"
	"flowcube/internal/oracle"
)

// BenchmarkApplyDelta times one 10-record append to a cube over the
// benchmark's build dataset shape (three dimensions, 2000 base paths,
// δ = 20, ledger on — what flowserve builds), with exceptions off and on
// (as flowserve -exceptions: the segment conditions) and
// redundancy marking off and on. Every iteration patches a fresh fork of the
// same base cube, whose condition cache the build warmed, so iterations are
// the same size; fork and database copy are outside the timer.
func BenchmarkApplyDelta(b *testing.B) {
	const base, batchLen, batches = 2000, 10, 8
	gen := datagen.Default()
	gen.NumDims, gen.NumPaths = 3, base+batchLen*batches
	ds := datagen.MustGenerate(gen)
	for _, exceptions := range []bool{false, true} {
		for _, tau := range []float64{0, 0.5} {
			b.Run(fmt.Sprintf("exceptions=%t/tau=%g", exceptions, tau), func(b *testing.B) {
				cube := oracle.Build(b, oracle.Prefix(ds.DB, base), core.Config{
					MinCount: 20, Epsilon: 0.1, Tau: tau, Plan: ds.DefaultPlan(),
					MineExceptions: exceptions, SingleStageExceptions: exceptions,
					DeltaLedger: true, Workers: 2,
				})
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					fork, db := cube.Fork(), oracle.Prefix(ds.DB, base)
					lo := base + i%batches*batchLen
					b.StartTimer()
					if _, err := core.ApplyDelta(fork, db, ds.DB.Records[lo:lo+batchLen]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
