package mining_test

import (
	"fmt"
	"testing"

	"flowcube/internal/datagen"
	"flowcube/internal/mining"
	"flowcube/internal/transact"
)

// BenchmarkMine runs the whole Shared loop — first scan, then join, prune,
// count and harvest per length — over the benchmark's build dataset shape
// (three dimensions, 2000 paths, δ = 1 %), at the worker counts a build uses.
func BenchmarkMine(b *testing.B) {
	cfg := datagen.Default()
	cfg.NumDims, cfg.NumPaths = 3, 2000
	ds := datagen.MustGenerate(cfg)
	syms := transact.MustNewSymbols(ds.Schema, ds.DefaultPlan())
	txs := syms.Encode(ds.DB)
	for _, workers := range []int{1, 2} {
		opts := mining.SharedOptions(0.01)
		opts.Workers = workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := mining.Mine(syms, txs, opts)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.NumFrequent()), "frequent")
			}
		})
	}
}
