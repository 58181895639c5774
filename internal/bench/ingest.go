package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flowcube/internal/core"
	"flowcube/internal/datagen"
	"flowcube/internal/incr"
	"flowcube/internal/pathdb"
	"flowcube/internal/server"
)

// IngestThroughput is one append-throughput measurement: many writers
// posting equal-size batches against a live server.
type IngestThroughput struct {
	// GroupLimit is the committer's coalescing cap (1 = serialized).
	GroupLimit int     `json:"group_limit"`
	WallMs     float64 `json:"wall_ms"`
	// AppendsPerSec is accepted append requests per second of wall time.
	AppendsPerSec float64 `json:"appends_per_sec"`
	// Folds is how many commit groups (delta folds + fsyncs) the run cost.
	Folds    int64 `json:"folds"`
	GroupP50 int   `json:"group_p50"`
	GroupMax int   `json:"group_max"`
}

// IngestRemine compares the two exception re-mining paths on the same batch:
// the warm-cache restricted path (re-mine only what the batch moved) against
// the cold full per-cell re-mine. Exactness is asserted, not assumed:
// DigestsEqual records that both paths produced byte-identical Save output.
type IngestRemine struct {
	FullMs       float64 `json:"full_ms"`
	RestrictedMs float64 `json:"restricted_ms"`
	// Speedup is full-re-mine time over restricted time for the same batch.
	Speedup         float64 `json:"speedup_full_over_restricted"`
	CellsRestricted int     `json:"cells_remined_restricted"`
	PrefixesRemined int     `json:"prefixes_remined"`
	DigestsEqual    bool    `json:"digests_equal"`
}

// IngestSuite is the write-path benchmark serialized to BENCH_ingest.json
// via cmd/flowbench -ingest: group-commit throughput against the serialized
// baseline (same batch size, same WAL), reader tail latency while the write
// path is saturated, and the batch-proportional exception re-mine against
// the full per-cell re-mine. See DESIGN.md §11.
type IngestSuite struct {
	GoVersion        string `json:"go_version"`
	GOMAXPROCS       int    `json:"gomaxprocs"`
	Paths            int    `json:"paths"`
	BatchRecords     int    `json:"batch_records"`
	Writers          int    `json:"writers"`
	BatchesPerWriter int    `json:"batches_per_writer"`
	MinCount         int64  `json:"min_count"`
	Seed             int64  `json:"seed"`

	Serialized IngestThroughput `json:"serialized"`
	Grouped    IngestThroughput `json:"grouped"`
	// Speedup is the headline number (acceptance: >= 3x): grouped
	// appends/sec over serialized appends/sec at equal batch size.
	Speedup float64 `json:"speedup_grouped_over_serialized"`

	// Reader tail latency (GET /v1/summary, response cache off so every
	// read computes): sampled during a grouped write storm on a dedicated
	// server, against an idle baseline taken on the same server — same
	// grown snapshot, same heap — after the storm drains. MVCC reads never
	// block on commits, so the loaded p99 must stay within 2x of idle.
	ReadIdleP99Ms   float64 `json:"read_idle_p99_ms"`
	ReadLoadedP99Ms float64 `json:"read_loaded_p99_ms"`
	ReadP99Ratio    float64 `json:"read_p99_ratio"`
	ReadsLoaded     int     `json:"reads_loaded"`

	Remine IngestRemine `json:"remine_1pct_batch"`
}

const (
	ingestWriters     = 16
	ingestRemineIters = 2
)

// ingestBatchesPerWriter bounds the run: the serialized baseline pays one
// clone-and-fold per body, so tiny smoke scales get a shorter storm.
func ingestBatchesPerWriter(o Options) int {
	if o.scale() < 0.05 {
		return 2
	}
	return 6
}

// Ingest benchmarks the serving write path end to end. ctx covers server
// startup (WAL scan/replay); the storms themselves run to completion.
func Ingest(ctx context.Context, o Options) IngestSuite {
	cfg := o.baseConfig()
	cfg.NumPaths = int(20_000 * o.scale())
	if cfg.NumPaths < 200 {
		cfg.NumPaths = 200
	}
	ds := datagen.MustGenerate(cfg)
	n := ds.DB.Len()
	base := n * 9 / 10
	batchLen := n / 200 // 0.5% batches: small enough that folds queue up
	if batchLen < 1 {
		batchLen = 1
	}
	minCount := o.minCount(0.01, n)
	coreCfg := core.Config{
		MinCount: minCount, Plan: ds.DefaultPlan(),
		DeltaLedger: true, Workers: runtime.GOMAXPROCS(0),
	}

	bpw := ingestBatchesPerWriter(o)
	suite := IngestSuite{
		GoVersion:        runtime.Version(),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		Paths:            n,
		BatchRecords:     batchLen,
		Writers:          ingestWriters,
		BatchesPerWriter: bpw,
		MinCount:         minCount,
		Seed:             cfg.Seed,
	}

	// Pre-render every batch body once; both runs post identical payloads.
	// Batches cycle over the held-out 10% (duplicates are ordinary appends).
	bodies := make([]string, ingestWriters*bpw)
	for i := range bodies {
		lo := base + (i*batchLen)%(n-base-batchLen+1)
		var buf bytes.Buffer
		db := &pathdb.DB{Schema: ds.DB.Schema, Records: ds.DB.Records[lo : lo+batchLen]}
		if _, err := db.WriteTo(&buf); err != nil {
			panic(fmt.Sprintf("bench: render ingest batch: %v", err))
		}
		bodies[i] = buf.String()
	}

	walDir, err := os.MkdirTemp("", "flowbench-ingest")
	if err != nil {
		panic(fmt.Sprintf("bench: ingest WAL scratch dir: %v", err))
	}
	defer func() { _ = os.RemoveAll(walDir) }() // scratch; nothing actionable on failure

	// Append throughput, nothing else on the box: the two modes run the
	// identical storm (same bodies, same writers, same WAL) with only the
	// committer's group limit changed.
	for _, mode := range []struct {
		name       string
		groupLimit int
	}{
		{"serialized", 1},
		{"grouped", 0}, // ingest default (64)
	} {
		s := newIngestServer(ctx, ds, base, coreCfg, server.Config{
			GroupLimit: mode.groupLimit,
			WALPath:    filepath.Join(walDir, mode.name+".wal"),
		})
		tp := ingestThroughput(s, bodies)
		tp.GroupLimit = mode.groupLimit
		_ = s.Close() // scratch server over a temp WAL; nothing actionable
		o.progress("ingest %s: %.1f appends/sec (%d folds, group p50 %d max %d) in %.0f ms",
			mode.name, tp.AppendsPerSec, tp.Folds, tp.GroupP50, tp.GroupMax, tp.WallMs)
		if mode.name == "grouped" {
			suite.Grouped = tp
		} else {
			suite.Serialized = tp
		}
	}
	if suite.Serialized.AppendsPerSec > 0 {
		suite.Speedup = suite.Grouped.AppendsPerSec / suite.Serialized.AppendsPerSec
	}

	// Reader tail latency on a dedicated grouped server, response cache off
	// so every sample computes against the current snapshot. The idle
	// baseline runs on the same server after the storm drains: same grown
	// cube, same heap — only the write path is absent.
	rs := newIngestServer(ctx, ds, base, coreCfg, server.Config{
		GroupLimit: 0,
		WALPath:    filepath.Join(walDir, "reads.wal"),
		CacheSize:  -1,
	})
	loaded := ingestReadStorm(rs, bodies[:len(bodies)/2])
	suite.ReadLoadedP99Ms = p99Ms(loaded)
	suite.ReadsLoaded = len(loaded)
	suite.ReadIdleP99Ms = p99Ms(readLatencies(rs.Handler(), 200, nil))
	_ = rs.Close() // scratch server over a temp WAL; nothing actionable
	if suite.ReadIdleP99Ms > 0 {
		suite.ReadP99Ratio = suite.ReadLoadedP99Ms / suite.ReadIdleP99Ms
	}
	o.progress("ingest reads: idle p99 %.3f ms, loaded p99 %.3f ms (%.2fx over %d reads)",
		suite.ReadIdleP99Ms, suite.ReadLoadedP99Ms, suite.ReadP99Ratio, suite.ReadsLoaded)

	suite.Remine = ingestRemine(o, ds, minCount)
	return suite
}

// newIngestServer serves a cube built over the dataset's first base records,
// with the database attached so appends work.
func newIngestServer(ctx context.Context, ds *datagen.Dataset, base int, coreCfg core.Config, sCfg server.Config) *server.Server {
	sCfg.Logger = log.New(io.Discard, "", 0)
	s, err := server.NewContext(ctx, func() (*core.Cube, server.LoadInfo, error) {
		db := &pathdb.DB{Schema: ds.DB.Schema, Records: append([]pathdb.Record(nil), ds.DB.Records[:base]...)}
		cube, err := core.Build(db, coreCfg)
		if err != nil {
			return nil, server.LoadInfo{}, err
		}
		return cube, server.LoadInfo{DB: db}, nil
	}, "bench", sCfg)
	if err != nil {
		panic(fmt.Sprintf("bench: ingest server: %v", err))
	}
	return s
}

// ingestStorm fires every batch body at /admin/append from ingestWriters
// concurrent goroutines (a shared counter hands out bodies, so any writer
// count drains any storm size) and returns the wall time.
func ingestStorm(h http.Handler, bodies []string) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < ingestWriters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(bodies)) {
					return
				}
				req := httptest.NewRequest(http.MethodPost, "/admin/append", strings.NewReader(bodies[i]))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					panic(fmt.Sprintf("bench: ingest append: status %d: %s", rec.Code, rec.Body.String()))
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// ingestThroughput runs one write storm with nothing else on the box and
// reports wall-clock append throughput.
func ingestThroughput(s *server.Server, bodies []string) IngestThroughput {
	wall := ingestStorm(s.Handler(), bodies)
	m := s.Metrics()
	tp := IngestThroughput{
		WallMs:   float64(wall.Nanoseconds()) / 1e6,
		Folds:    m.Ingest.Groups,
		GroupP50: m.Ingest.GroupP50,
		GroupMax: m.Ingest.GroupMax,
	}
	if wall > 0 {
		tp.AppendsPerSec = float64(len(bodies)) / wall.Seconds()
	}
	return tp
}

// ingestReadStorm runs a write storm while one reader goroutine samples
// GET /v1/summary latency, returning the samples taken inside the storm
// window.
func ingestReadStorm(s *server.Server, bodies []string) []time.Duration {
	h := s.Handler()
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	var loaded []time.Duration
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		loaded = readLatencies(h, 0, stop)
	}()
	ingestStorm(h, bodies)
	close(stop)
	readerWG.Wait()
	return loaded
}

// readLatencies issues GET /v1/summary requests and returns their
// latencies: a fixed count when count > 0, otherwise until stop closes.
func readLatencies(h http.Handler, count int, stop <-chan struct{}) []time.Duration {
	var out []time.Duration
	for i := 0; count == 0 || i < count; i++ {
		if stop != nil {
			select {
			case <-stop:
				return out
			default:
			}
		}
		req := httptest.NewRequest(http.MethodGet, "/v1/summary", nil)
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		out = append(out, time.Since(start))
		if rec.Code != http.StatusOK {
			panic(fmt.Sprintf("bench: ingest read: status %d", rec.Code))
		}
	}
	return out
}

func p99Ms(samples []time.Duration) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := len(sorted) * 99 / 100
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx].Nanoseconds()) / 1e6
}

// ingestRemine times the same 1% exception-mining batch down both re-mining
// paths — warm condition cache (restricted) versus dropped cache (full
// per-cell re-mine) — and asserts their Save outputs are byte-identical.
func ingestRemine(o Options, ds *datagen.Dataset, minCount int64) IngestRemine {
	n := ds.DB.Len()
	batchLen := n / 100
	if batchLen < 1 {
		batchLen = 1
	}
	split := n - batchLen
	batch := ds.DB.Records[split:]
	cfg := core.Config{
		MinCount: minCount, Epsilon: 0.1, Plan: ds.DefaultPlan(),
		MineExceptions: true, SingleStageExceptions: true,
		DeltaLedger: true, Workers: runtime.GOMAXPROCS(0),
	}
	prefix := &pathdb.DB{Schema: ds.DB.Schema, Records: append([]pathdb.Record(nil), ds.DB.Records[:split]...)}
	base, err := core.Build(prefix, cfg) // Build warms the condition cache
	if err != nil {
		panic(fmt.Sprintf("bench: ingest remine base build: %v", err))
	}

	run := func(dropCache bool) (int64, *incr.Stats, *core.Cube) {
		best := int64(0)
		var stats *incr.Stats
		var cube *core.Cube
		for i := 0; i < ingestRemineIters; i++ {
			cube = base.Fork()
			if dropCache {
				cube.DropCondCache()
			}
			db := &pathdb.DB{Schema: ds.DB.Schema, Records: append([]pathdb.Record(nil), prefix.Records...)}
			start := time.Now()
			stats, err = incr.ApplyDelta(cube, db, batch)
			if err != nil {
				panic(fmt.Sprintf("bench: ingest remine delta: %v", err))
			}
			if ns := time.Since(start).Nanoseconds(); best == 0 || ns < best {
				best = ns
			}
		}
		return best, stats, cube
	}

	restrictedNs, restrictedStats, warmCube := run(false)
	fullNs, _, coldCube := run(true)

	var warmSave, coldSave bytes.Buffer
	if err := warmCube.Save(&warmSave); err != nil {
		panic(fmt.Sprintf("bench: ingest remine save: %v", err))
	}
	if err := coldCube.Save(&coldSave); err != nil {
		panic(fmt.Sprintf("bench: ingest remine save: %v", err))
	}

	res := IngestRemine{
		FullMs:          float64(fullNs) / 1e6,
		RestrictedMs:    float64(restrictedNs) / 1e6,
		CellsRestricted: restrictedStats.CellsReminedRestricted,
		PrefixesRemined: restrictedStats.PrefixesRemined,
		DigestsEqual:    bytes.Equal(warmSave.Bytes(), coldSave.Bytes()),
	}
	if !res.DigestsEqual {
		panic("bench: ingest remine: restricted and full re-mines diverged (exactness violated)")
	}
	if restrictedNs > 0 {
		res.Speedup = float64(fullNs) / float64(restrictedNs)
	}
	o.progress("ingest remine (1%% batch): full %.1f ms, restricted %.1f ms (%.1fx), %d cells restricted, %d prefixes",
		res.FullMs, res.RestrictedMs, res.Speedup, res.CellsRestricted, res.PrefixesRemined)
	return res
}
