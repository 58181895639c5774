package bench

import (
	"fmt"
	"runtime"
	"time"

	"flowcube/internal/core"
	"flowcube/internal/datagen"
	"flowcube/internal/incr"
	"flowcube/internal/pathdb"
)

// IncrVariant is one configuration's full-rebuild-vs-delta comparison.
type IncrVariant struct {
	Name          string  `json:"name"`
	FullRebuildMs float64 `json:"full_rebuild_ms"`
	DeltaMs       float64 `json:"delta_ms"`
	// Speedup is full-rebuild time over delta time for the same batch.
	Speedup       float64 `json:"speedup_full_over_delta"`
	CellsTouched  int     `json:"cells_touched"`
	CellsAdmitted int     `json:"cells_admitted"`
	LedgerEntries int     `json:"ledger_entries"`
}

// IncrSuite is the incremental-maintenance benchmark serialized to
// BENCH_incr.json via cmd/flowbench -incr: a 1% append batch applied by
// incr.ApplyDelta against rebuilding the whole cube from scratch. The
// headline Speedup is the plain variant's — counts, flowgraphs and sub-δ
// admissions only, the work that scales with batch size. The other two
// variants quantify the maintenance passes whose cost tracks cube size
// rather than batch size and are reported for context: redundancy
// re-marking walks the touched-cell frontier (near-global once the batch
// touches the apex cell), and exception re-mining recomputes every touched
// cell's conditions over its full record set, including the apex's entire
// union database. See DESIGN.md §9 "Cost".
type IncrSuite struct {
	GoVersion    string `json:"go_version"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	Paths        int    `json:"paths"`
	BatchRecords int    `json:"batch_records"`
	MinCount     int64  `json:"min_count"`
	Seed         int64  `json:"seed"`
	// Speedup echoes the plain variant's speedup — the suite's headline
	// number (acceptance: >= 10x for a 1% batch).
	Speedup  float64       `json:"speedup_full_over_delta"`
	Variants []IncrVariant `json:"variants"`
}

// Iteration counts: the minimum over a few runs is stable enough for a
// tracked artifact. The context variants run fewer iterations — their
// deltas deliberately include the cube-sized maintenance passes, so one
// round is tens of seconds at the default scale.
const (
	incrFullIters  = 2
	incrDeltaIters = 3
)

// Incr benchmarks delta maintenance: build over the first 99% of the
// generated database, then time folding the final 1% in via ApplyDelta
// against one full Build over everything.
func Incr(o Options) IncrSuite {
	cfg := o.baseConfig()
	cfg.NumPaths = int(100_000 * o.scale())
	ds := datagen.MustGenerate(cfg)
	n := ds.DB.Len()
	batchLen := n / 100
	if batchLen < 1 {
		batchLen = 1
	}
	split := n - batchLen
	minCount := o.minCount(0.01, n)
	batch := ds.DB.Records[split:]

	suite := IncrSuite{
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Paths:        n,
		BatchRecords: batchLen,
		MinCount:     minCount,
		Seed:         cfg.Seed,
	}

	variants := []struct {
		name       string
		fullIters  int
		deltaIters int
		cfg        core.Config
	}{
		{"plain", incrFullIters, incrDeltaIters, core.Config{
			MinCount: minCount, Plan: ds.DefaultPlan(),
			DeltaLedger: true, Workers: runtime.GOMAXPROCS(0),
		}},
		{"redundancy", 1, 1, core.Config{
			MinCount: minCount, Tau: 0.5, Plan: ds.DefaultPlan(),
			DeltaLedger: true, Workers: runtime.GOMAXPROCS(0),
		}},
		{"exceptions", 1, 1, core.Config{
			MinCount: minCount, Epsilon: 0.1, Plan: ds.DefaultPlan(),
			MineExceptions: true, SingleStageExceptions: true,
			DeltaLedger: true, Workers: runtime.GOMAXPROCS(0),
		}},
	}
	for _, v := range variants {
		prefix := &pathdb.DB{Schema: ds.DB.Schema, Records: append([]pathdb.Record(nil), ds.DB.Records[:split]...)}
		base, err := core.Build(prefix, v.cfg)
		if err != nil {
			panic(fmt.Sprintf("bench: incr base build failed: %v", err))
		}

		fullNs := int64(0)
		for i := 0; i < v.fullIters; i++ {
			start := time.Now()
			if _, err := core.Build(ds.DB, v.cfg); err != nil {
				panic(fmt.Sprintf("bench: incr full build failed: %v", err))
			}
			if ns := time.Since(start).Nanoseconds(); fullNs == 0 || ns < fullNs {
				fullNs = ns
			}
		}

		deltaNs := int64(0)
		var stats *incr.Stats
		for i := 0; i < v.deltaIters; i++ {
			// Fork the cube and copy the database outside the timer; the
			// delta, including the cells and flowgraph nodes it copies out
			// of base on first write, is what scales with batch size.
			cube := base.Fork()
			db := &pathdb.DB{Schema: ds.DB.Schema, Records: append([]pathdb.Record(nil), prefix.Records...)}
			start := time.Now()
			stats, err = incr.ApplyDelta(cube, db, batch)
			if err != nil {
				panic(fmt.Sprintf("bench: incr delta failed: %v", err))
			}
			if ns := time.Since(start).Nanoseconds(); deltaNs == 0 || ns < deltaNs {
				deltaNs = ns
			}
		}

		res := IncrVariant{
			Name:          v.name,
			FullRebuildMs: float64(fullNs) / 1e6,
			DeltaMs:       float64(deltaNs) / 1e6,
			CellsTouched:  stats.CellsTouched,
			CellsAdmitted: stats.CellsAdmitted,
			LedgerEntries: stats.LedgerSize,
		}
		if deltaNs > 0 {
			res.Speedup = float64(fullNs) / float64(deltaNs)
		}
		suite.Variants = append(suite.Variants, res)
		o.progress("incr %s: full %.1f ms, delta %.2f ms (%.1fx), %d touched, %d admitted",
			v.name, res.FullRebuildMs, res.DeltaMs, res.Speedup, res.CellsTouched, res.CellsAdmitted)
		if v.name == "plain" {
			suite.Speedup = res.Speedup
		}
	}
	return suite
}
