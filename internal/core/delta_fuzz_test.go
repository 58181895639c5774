package core_test

import (
	"errors"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/datagen"
	"flowcube/internal/hierarchy"
	"flowcube/internal/oracle"
	"flowcube/internal/pathdb"
)

// decodeBatch turns fuzz bytes into an arbitrary batch — including records
// with out-of-range dimension values or locations, negative durations,
// empty paths, and duplicates. Validity is exactly what ApplyDelta must
// decide; the decoder only shapes bytes into records.
func decodeBatch(data []byte, dims int) []pathdb.Record {
	if len(data) == 0 {
		return nil
	}
	n := int(data[0] % 8)
	data = data[1:]
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	batch := make([]pathdb.Record, 0, n)
	for i := 0; i < n; i++ {
		rec := pathdb.Record{}
		nd := dims
		if next()%5 == 0 {
			nd = int(next() % 4) // wrong arity on purpose
		}
		for d := 0; d < nd; d++ {
			rec.Dims = append(rec.Dims, int32ToNodeID(next()))
		}
		steps := int(next() % 5) // 0 = empty path on purpose
		for sIdx := 0; sIdx < steps; sIdx++ {
			rec.Path = append(rec.Path, pathdb.Stage{
				Location: int32ToNodeID(next()),
				Duration: int64(int8(next())), // negative durations on purpose
			})
		}
		batch = append(batch, rec)
		if next()%4 == 0 && len(batch) > 0 {
			batch = append(batch, batch[len(batch)-1]) // duplicate
		}
	}
	return batch
}

func int32ToNodeID(b byte) hierarchy.NodeID { return hierarchy.NodeID(int8(b)) }

// FuzzApplyDelta asserts ApplyDelta never panics on arbitrary batches —
// corrupt, duplicate, or empty — and that every failure is a typed error
// that changed nothing. Each batch is applied in two halves, twice: in place
// on one fork of the base cube, and over a chain of forks (one per half, a
// failed half's fork dropped). Both must save the same bytes as a full
// Build over the records they hold — exceptions and redundancy included —
// and be structurally valid, and the base cube must save what it saved
// before.
func FuzzApplyDelta(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 2, 0, 5, 1, 1, 2, 3})
	f.Add([]byte{7, 250, 0, 0, 200, 200, 9, 9, 9, 9, 9, 1, 2, 3, 4, 5, 6, 7, 8})
	gen := oracle.Gen(41, 60)
	gen.NumDims, gen.DimFanouts = 1, [3]int{2, 2, 3}
	ds := datagen.MustGenerate(gen)
	base := oracle.Build(f, ds.DB, core.Config{
		MinCount: 3, Epsilon: 0.05, Tau: 0.5, Plan: ds.DefaultPlan(),
		MineExceptions: true, SingleStageExceptions: true,
	})
	baseSnap := oracle.Save(f, base)
	freshDB := func() *pathdb.DB { return oracle.Prefix(ds.DB, ds.DB.Len()) }

	f.Fuzz(func(t *testing.T, data []byte) {
		batch := decodeBatch(data, len(ds.Schema.Dims))
		inPlace, chain := base.Fork(), base
		dbInPlace, dbChain := freshDB(), freshDB()
		for _, half := range [][]pathdb.Record{batch[:len(batch)/2], batch[len(batch)/2:]} {
			before := dbInPlace.Len()
			stats, err := core.ApplyDelta(inPlace, dbInPlace, half)
			next := chain.Fork()
			_, chainErr := core.ApplyDelta(next, dbChain, half)
			if (err == nil) != (chainErr == nil) {
				t.Fatalf("in place: %v; over a fork: %v", err, chainErr)
			}
			if err != nil {
				var be *core.BatchError
				if !errors.As(err, &be) &&
					!errors.Is(err, core.ErrNilCube) &&
					!errors.Is(err, core.ErrNilDB) &&
					!errors.Is(err, core.ErrAbsoluteMinCount) &&
					!errors.Is(err, core.ErrSchemaMismatch) {
					t.Fatalf("untyped error: %v", err)
				}
				if dbInPlace.Len() != before || dbChain.Len() != before {
					t.Fatalf("failed delta still appended records: %d -> %d / %d", before, dbInPlace.Len(), dbChain.Len())
				}
				continue
			}
			if stats.BatchRecords != len(half) {
				t.Fatalf("stats.BatchRecords = %d, want %d", stats.BatchRecords, len(half))
			}
			chain = next
		}
		oracle.Same(t, "fork chain against the in-place application", inPlace, chain)
		oracle.Check(t, "fork chain", chain, dbChain, base.Config)
		if err := chain.Validate(); err != nil {
			t.Fatalf("cube invalid after delta: %v", err)
		}
		if d := oracle.Diff(baseSnap, oracle.Save(t, base)); d != "" {
			t.Fatal("applying deltas to forks changed the base cube: " + d)
		}
	})
}
