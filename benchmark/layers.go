package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"time"

	"flowcube/internal/cluster"
	"flowcube/internal/core"
	"flowcube/internal/flowgraph"
	"flowcube/internal/incr"
	"flowcube/internal/ingest"
	"flowcube/internal/mining"
	"flowcube/internal/olap"
	"flowcube/internal/pathdb"
	"flowcube/internal/server"
	"flowcube/internal/transact"
)

// perLayer lists the metrics of the traced pass, in BENCHMARK.json's order.
// A layer is a package; each metric is timed (or counted) from here, around
// the layer's public calls, on the inputs the workloads use at the same
// seed. README.md says which end-to-end metric each one should move.
var perLayer = []metricDef{
	// build root: what one flowquery build does, step by step.
	{name: "pathdb.read_s", unit: "s"},
	{name: "transact.encode_s", unit: "s"},
	{name: "transact.items_per_tx", unit: "count", exact: true},
	{name: "mining.mine_s", unit: "s"},
	{name: "mining.scans", unit: "count", exact: true},
	{name: "mining.candidates_counted", unit: "count", exact: true},
	{name: "mining.candidates_pruned", unit: "count", exact: true},
	{name: "mining.frequent_itemsets", unit: "count", higher: true, exact: true},
	{name: "mining.useful_ratio", unit: "ratio", higher: true, exact: true},
	{name: "core.build_plain_s", unit: "s"},
	{name: "core.populate_s", unit: "s"},
	{name: "core.exceptions_s", unit: "s"},
	{name: "core.redundancy_s", unit: "s"},
	{name: "core.cells", unit: "count", exact: true},
	{name: "core.cuboids", unit: "count", exact: true},
	{name: "core.exceptions_found", unit: "count", exact: true},
	{name: "core.redundant_cells", unit: "count", exact: true},
	{name: "flowgraph.build_us_per_path", unit: "us"},
	{name: "core.save_s", unit: "s"},
	{name: "core.load_s", unit: "s"},
	{name: "core.lazy_open_ms", unit: "ms"},
	{name: "core.snapshot_bytes", unit: "B", exact: true},
	// query root: one /v2/query, layer by layer, then through the handler.
	{name: "olap.parse_us", unit: "us"},
	{name: "core.answer_materialized_us", unit: "us"},
	{name: "core.answer_lazy_hit_us", unit: "us"},
	{name: "core.answer_lazy_miss_ms", unit: "ms"},
	{name: "core.answer_computed_ms", unit: "ms"},
	{name: "core.answer_multi_ms", unit: "ms"},
	{name: "core.fold_width_mean", unit: "count", exact: true},
	{name: "flowgraph.fold_us_per_graph", unit: "us"},
	{name: "server.render_us", unit: "us"},
	{name: "server.response_bytes_mean", unit: "B"},
	{name: "server.handler_hit_us", unit: "us"},
	{name: "server.handler_miss_us", unit: "us"},
	{name: "server.transport_us", unit: "us"},
	{name: "server.cache_hit_ratio_hot", unit: "ratio", higher: true},
	{name: "server.cache_hit_ratio_cold", unit: "ratio", higher: true},
	{name: "core.lazy_hit_ratio", unit: "ratio", higher: true},
	{name: "core.lazy_evictions", unit: "count"},
	{name: "core.lazy_decoded_mb", unit: "MB"},
	{name: "server.v2_cell_ms", unit: "ms"},
	{name: "server.v1_cell_ms", unit: "ms"},
	{name: "server.v2_computed_ms", unit: "ms"},
	{name: "server.v2_rollup_ms", unit: "ms"},
	{name: "server.v2_multi_ms", unit: "ms"},
	{name: "server.summary_ms", unit: "ms"},
	{name: "server.cold_p99_ms", unit: "ms"},
	{name: "trace.overhead_us", unit: "us"},
	// commit root: one append, layer by layer, then through the handler.
	{name: "pathdb.parse_us_per_record", unit: "us"},
	{name: "ingest.wal_append_us", unit: "us"},
	{name: "ingest.wal_sync_ms", unit: "ms"},
	{name: "ingest.wal_bytes_per_record", unit: "B", exact: true},
	{name: "incr.apply_delta_ms", unit: "ms"},
	{name: "incr.cells_touched_mean", unit: "count", exact: true},
	{name: "incr.cells_admitted_mean", unit: "count", exact: true},
	{name: "server.append_ms", unit: "ms"},
	{name: "ingest.commit_other_ms", unit: "ms"},
	{name: "ingest.replay_ms_per_entry", unit: "ms"},
	{name: "ingest.burst8_ack_ms", unit: "ms"},
	{name: "ingest.burst8_groups", unit: "count"},
	{name: "server.read_p99_idle_ms", unit: "ms"},
	// No end-to-end workload covers the router; stated so the gap shows.
	{name: "cluster.split_s", unit: "s"},
	{name: "cluster.router_cell_ms", unit: "ms"},
	{name: "cluster.router_overhead_ms", unit: "ms"},
}

// span is one timed call, in the shape the traced pass writes out.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the pass ends. It is used from one
// goroutine.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(parent int, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: time.Since(t.epoch).Nanoseconds()})
	return len(t.spans)
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = time.Since(t.epoch).Nanoseconds()
	return time.Duration(s.End - s.Start)
}

// timed runs fn inside a span.
func (t *tracer) timed(parent int, name string, fn func() error) (time.Duration, error) {
	id := t.begin(parent, name)
	err := fn()
	return t.end(id), err
}

// write stores the spans with each name's total and self time (a span's
// duration minus what its children cover).
func (t *tracer) write(path string) error {
	type nameStat struct {
		Count   int   `json:"count"`
		TotalNs int64 `json:"total_ns"`
		SelfNs  int64 `json:"self_ns"`
	}
	childNs := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		childNs[s.Parent] += s.End - s.Start
	}
	byName := make(map[string]*nameStat)
	for _, s := range t.spans {
		st := byName[s.Name]
		if st == nil {
			st = &nameStat{}
			byName[s.Name] = st
		}
		st.Count++
		st.TotalNs += s.End - s.Start
		st.SelfNs += s.End - s.Start - childNs[s.ID]
	}
	data, err := json.MarshalIndent(map[string]any{"by_name": byName, "spans": t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

var quiet = log.New(io.Discard, "", 0)

// layerPass carries one traced pass.
type layerPass struct {
	sc   scale
	seed int64
	dir  string
	tr   *tracer
	res  *result
}

// runLayers is the traced pass: it times calls into each layer's public
// functions in this process and writes the spans to
// benchmark/out/trace-<workload>.json. The pass is the same whichever
// workload names it, because every traced run reports every per-layer
// metric. End-to-end numbers never come from here.
func runLayers(ctx context.Context, e *env, sc scale, seed int64, workload string) (*result, error) {
	dir, err := e.scratch()
	if err != nil {
		return nil, err
	}
	lp := &layerPass{sc: sc, seed: seed, dir: dir, tr: newTracer(), res: newResult()}
	for _, step := range []func(context.Context) error{lp.build, lp.query, lp.commit} {
		if err := step(ctx); err != nil {
			return nil, err
		}
	}
	if err := lp.tr.write(filepath.Join(e.out, "trace-"+workload+".json")); err != nil {
		return nil, err
	}
	return lp.res, nil
}

func (lp *layerPass) set(name string, v float64) { lp.res.metrics[name] = v }

// build follows one flowquery build on the build workload's dataset: read,
// encode, mine, populate, exceptions, redundancy, save, load.
func (lp *layerPass) build(ctx context.Context) error {
	tr, sc := lp.tr, lp.sc
	ds, _, err := dataset(sc.buildDims, sc.buildPaths, 0, lp.seed)
	if err != nil {
		return err
	}
	var text bytes.Buffer
	if _, err := ds.DB.WriteTo(&text); err != nil {
		return err
	}
	plan := ds.DefaultPlan()
	root := tr.begin(0, "build")

	var db *pathdb.DB
	d, err := tr.timed(root, "pathdb.read", func() (err error) {
		db, err = pathdb.Read(bytes.NewReader(text.Bytes()), ds.Schema)
		return err
	})
	if err != nil {
		return err
	}
	lp.set("pathdb.read_s", d.Seconds())

	syms, err := transact.NewSymbols(ds.Schema, plan)
	if err != nil {
		return err
	}
	var txs []transact.Transaction
	encode, _ := tr.timed(root, "transact.encode", func() error { txs = syms.Encode(db); return nil })
	lp.set("transact.encode_s", encode.Seconds())
	items := 0
	for _, tx := range txs {
		items += len(tx)
	}
	lp.set("transact.items_per_tx", float64(items)/float64(len(txs)))

	mopts := mining.SharedOptions(minSupport)
	mopts.Workers = buildWorkers
	var mined *mining.Result
	mine, err := tr.timed(root, "mining.mine", func() (err error) {
		mined, err = mining.Mine(syms, txs, mopts)
		return err
	})
	if err != nil {
		return err
	}
	lp.set("mining.mine_s", mine.Seconds())
	lp.set("mining.scans", float64(mined.Scans))
	counted, pruned, frequent := 0, 0, 0
	for _, l := range mined.Levels {
		counted += l.Counted
		pruned += l.Pruned
		frequent += l.Frequent
	}
	lp.set("mining.candidates_counted", float64(counted))
	lp.set("mining.candidates_pruned", float64(pruned))
	lp.set("mining.frequent_itemsets", float64(frequent))
	lp.set("mining.useful_ratio", float64(frequent)/float64(counted))

	// core.Build runs encode and mine again inside; populate is what is left.
	cfg := core.Config{MinSupport: minSupport, Epsilon: 0.1, Plan: plan, Workers: buildWorkers}
	coreSpan := tr.begin(root, "core.build")
	plain, err := tr.timed(coreSpan, "core.build_plain", func() error {
		_, err := core.BuildContext(ctx, db, cfg)
		return err
	})
	if err != nil {
		return err
	}
	lp.set("core.build_plain_s", plain.Seconds())
	lp.set("core.populate_s", (plain - encode - mine).Seconds())
	cfg.MineExceptions, cfg.SingleStageExceptions = true, true // as flowquery -exceptions
	var cube *core.Cube
	withExc, err := tr.timed(coreSpan, "core.build_exceptions", func() (err error) {
		cube, err = core.BuildContext(ctx, db, cfg)
		return err
	})
	if err != nil {
		return err
	}
	lp.set("core.exceptions_s", (withExc - plain).Seconds())
	redundant := 0
	red, _ := tr.timed(coreSpan, "core.redundancy", func() error { redundant = cube.MarkRedundancy(0.5); return nil })
	tr.end(coreSpan)
	lp.set("core.redundancy_s", red.Seconds())
	lp.set("core.redundant_cells", float64(redundant))
	lp.set("core.cells", float64(cube.NumCells()))
	lp.set("core.cuboids", float64(len(cube.Cuboids)))
	exceptions := 0
	for _, cb := range cube.Cuboids {
		for _, cell := range cb.Cells {
			if cell.Graph != nil {
				exceptions += len(cell.Graph.Exceptions())
			}
		}
	}
	lp.set("core.exceptions_found", float64(exceptions))

	paths := make([]pathdb.Path, len(db.Records))
	for i, r := range db.Records {
		paths[i] = r.Path
	}
	fg, _ := tr.timed(root, "flowgraph.build", func() error {
		for _, level := range plan.PathLevels {
			flowgraph.Build(ds.Schema.Location, level, paths, nil)
		}
		return nil
	})
	lp.set("flowgraph.build_us_per_path", us(fg)/float64(len(paths)*len(plan.PathLevels)))

	snapshot := filepath.Join(lp.dir, "build.fcb")
	save, err := tr.timed(root, "core.save", func() error { return saveCube(cube, snapshot) })
	if err != nil {
		return err
	}
	tr.end(root)
	lp.set("core.save_s", save.Seconds())
	st, err := os.Stat(snapshot)
	if err != nil {
		return err
	}
	lp.set("core.snapshot_bytes", float64(st.Size()))

	load, err := tr.timed(0, "core.load", func() error {
		f, err := os.Open(snapshot)
		if err != nil {
			return err
		}
		defer func() { _ = f.Close() }() // read-only
		_, err = core.Load(f)
		return err
	})
	if err != nil {
		return err
	}
	lp.set("core.load_s", load.Seconds())
	var opens []float64
	for i := 0; i < sc.layerSamples; i++ {
		d, err := tr.timed(0, "core.lazy_open", func() error {
			lazy, err := core.LoadCubeLazy(snapshot, core.LazyOptions{})
			if err != nil {
				return err
			}
			return lazy.Close()
		})
		if err != nil {
			return err
		}
		opens = append(opens, ms(d))
	}
	lp.set("core.lazy_open_ms", median(opens))
	lp.res.attempted += 8 + sc.layerSamples
	return nil
}

func saveCube(cube *core.Cube, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := cube.Save(f); err != nil {
		_ = f.Close() // the Save error is the one worth reporting
		return err
	}
	return f.Close()
}

// handle serves one request on h with no network in between and times it.
func handle(h http.Handler, method, target string, body []byte) (time.Duration, *httptest.ResponseRecorder) {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rec, req)
	return time.Since(start), rec
}

// sample returns up to n requests spread evenly over reqs.
func sample(reqs []request, n int) []request {
	if len(reqs) <= n {
		return reqs
	}
	out := make([]request, n)
	for i := range out {
		out[i] = reqs[i*len(reqs)/n]
	}
	return out
}

func params(r request) url.Values {
	u, _ := url.Parse(r.url) // built by this package
	return u.Query()
}

// query follows /v2/query requests on the serving cube: parse, answer and
// render called directly; then the handler without a network; then the
// handler over loopback under the hot and the cold request mix; then the
// router over two shards.
func (lp *layerPass) query(ctx context.Context) error {
	tr, sc := lp.tr, lp.sc
	in, err := buildServeInputs(ctx, sc, lp.seed, lp.dir, true)
	if err != nil {
		return err
	}
	cube := in.cube
	n := sc.layerSamples

	// One class at a time through the three layers, eager cube.
	var parseUs, renderUs, bytesOut []float64
	direct := func(reqs []request, each func(a *core.Answer, d time.Duration)) error {
		for _, r := range reqs {
			root := tr.begin(0, "query")
			var q core.Query
			d, err := tr.timed(root, "olap.parse", func() (err error) { q, err = olap.ParseQuery(cube, params(r)); return err })
			if err != nil {
				return err
			}
			parseUs = append(parseUs, us(d))
			var a *core.Answer
			ad, err := tr.timed(root, "core.answer", func() (err error) { a, err = cube.Answer(ctx, q); return err })
			if err != nil {
				return fmt.Errorf("%s: %w", r.url, err)
			}
			var body []byte
			d, err = tr.timed(root, "server.render", func() (err error) {
				body, err = json.MarshalIndent(server.RenderQueryResponse(cube, a), "", "  ")
				return err
			})
			if err != nil {
				return err
			}
			tr.end(root)
			renderUs = append(renderUs, us(d))
			bytesOut = append(bytesOut, float64(len(body)))
			lp.res.attempted++
			each(a, ad)
		}
		return nil
	}
	var matUs, computedMs, multiMs, widths, foldUs []float64
	if err := direct(sample(in.materialized, 10*n), func(_ *core.Answer, d time.Duration) {
		matUs = append(matUs, us(d))
	}); err != nil {
		return err
	}
	if err := direct(sample(in.computed, n), func(a *core.Answer, d time.Duration) {
		computedMs = append(computedMs, ms(d))
		folded := a.Cells[0].Folded
		widths = append(widths, float64(len(folded)))
		graphs := make([]*flowgraph.Graph, 0, len(folded))
		for _, ref := range folded {
			if cell, ok := cube.Cell(ref.Spec, ref.Values); ok {
				graphs = append(graphs, cell.Graph)
			}
		}
		fd, err := tr.timed(0, "flowgraph.fold", func() error { _, err := flowgraph.Fold(graphs); return err })
		if err == nil && len(graphs) > 0 {
			foldUs = append(foldUs, us(fd)/float64(len(graphs)))
		}
	}); err != nil {
		return err
	}
	if err := direct(sample(in.multi, n), func(_ *core.Answer, d time.Duration) {
		multiMs = append(multiMs, ms(d))
	}); err != nil {
		return err
	}
	lp.set("olap.parse_us", median(parseUs))
	lp.set("core.answer_materialized_us", median(matUs))
	lp.set("core.answer_computed_ms", median(computedMs))
	lp.set("core.answer_multi_ms", median(multiMs))
	lp.set("core.fold_width_mean", mean(widths))
	lp.set("flowgraph.fold_us_per_graph", median(foldUs))
	lp.set("server.render_us", median(renderUs))
	lp.set("server.response_bytes_mean", mean(bytesOut))

	// The same cell twice on a lazily opened snapshot: the first touch of a
	// cuboid decodes its section, the second finds it in the section LRU.
	lazy, err := core.LoadCubeLazy(in.snapshot, core.LazyOptions{CacheBytes: sc.lazyCacheBytes})
	if err != nil {
		return err
	}
	var missMs, hitUs []float64
	touched := make(map[string]bool)
	for _, r := range in.materialized {
		if len(missMs) == n {
			break
		}
		q, err := olap.ParseQuery(lazy, params(r))
		if err != nil {
			return err
		}
		if touched[q.Spec.Key()] {
			continue
		}
		touched[q.Spec.Key()] = true
		for pass := 0; pass < 2; pass++ {
			d, err := tr.timed(0, "core.answer_lazy", func() error { _, err := lazy.Answer(ctx, q); return err })
			if err != nil {
				return err
			}
			if pass == 0 {
				missMs = append(missMs, ms(d))
			} else {
				hitUs = append(hitUs, us(d))
			}
		}
	}
	if err := lazy.Close(); err != nil {
		return err
	}
	lp.set("core.answer_lazy_miss_ms", median(missMs))
	lp.set("core.answer_lazy_hit_us", median(hitUs))

	// The handler with no network in between: first request of a URL misses
	// the response cache, the second hits it.
	eager, err := server.NewContext(ctx, server.FileLoader(in.snapshot, server.BuildOptions{}), in.snapshot, server.Config{Logger: quiet})
	if err != nil {
		return err
	}
	defer func() { _ = eager.Close() }() // nothing to flush: no WAL
	probe := sample(in.materialized, 10*n)
	var missUs, hitHUs []float64
	for pass := 0; pass < 2; pass++ {
		for _, r := range probe {
			d, rec := handle(eager.Handler(), http.MethodGet, r.url, nil)
			lp.res.attempted++
			if rec.Code != http.StatusOK {
				lp.res.fail("handler %s: status %d", r.url, rec.Code)
			}
			if pass == 0 {
				missUs = append(missUs, us(d))
			} else {
				hitHUs = append(hitHUs, us(d))
			}
		}
	}
	lp.set("server.handler_miss_us", median(missUs))
	lp.set("server.handler_hit_us", median(hitHUs))

	// Over loopback, hot mix on the eager server: what the network adds to a
	// cache hit, and what recording a span per request costs.
	loop := func(srv *server.Server, st *stream, d time.Duration, traced bool) (loopResult, server.MetricsSnapshot) {
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		c := newClient(ts.URL)
		defer c.close()
		before := srv.Metrics()
		if traced {
			inner := st.next
			var open int
			st = &stream{next: func() *request {
				if open != 0 {
					tr.end(open)
				}
				open = tr.begin(0, "query.http")
				return inner()
			}}
			defer func() { tr.end(open) }()
		}
		lr := closedLoop(ctx, c, st, newChecker(in.oracle, in.cells, in.cuboids), d, 0)
		lp.res.addLoop("layer pass", lr)
		after := srv.Metrics()
		after.Cache.Hits -= before.Cache.Hits
		after.Cache.Misses -= before.Cache.Misses
		return lr, after
	}
	hot, _ := hotStream(in, sc, lp.seed)
	loop(eager, hot, 2*sc.warmup, false) // fills the response cache
	plainRun, m := loop(eager, hot, 2*sc.warmup, false)
	tracedRun, _ := loop(eager, hot, 2*sc.warmup, true)
	lp.set("server.transport_us", median(plainRun.latMs)*1e3-median(hitHUs))
	lp.set("server.cache_hit_ratio_hot", float64(m.Cache.Hits)/float64(m.Cache.Hits+m.Cache.Misses))
	lp.set("trace.overhead_us", (median(tracedRun.latMs)-median(plainRun.latMs))*1e3)

	// Over loopback, cold mix on a lazy server: per-class latency and the
	// state of both caches.
	lazySrv, err := server.NewContext(ctx,
		server.FileLoader(in.snapshot, server.BuildOptions{Lazy: true, LazyCacheBytes: sc.lazyCacheBytes}),
		in.snapshot, server.Config{Logger: quiet})
	if err != nil {
		return err
	}
	defer func() { _ = lazySrv.Close() }() // nothing to flush: no WAL
	coldRun, m := loop(lazySrv, coldStream(in, lp.seed), tailLoop*sc.warmup, false)
	lp.set("server.cache_hit_ratio_cold", float64(m.Cache.Hits)/float64(m.Cache.Hits+m.Cache.Misses))
	lp.set("server.cold_p99_ms", lp.p99("cold mix", coldRun.latMs))
	if lz := m.Snapshot.Lazy; lz != nil {
		lp.set("core.lazy_hit_ratio", float64(lz.CacheHits)/float64(lz.CacheHits+lz.CacheMisses))
		lp.set("core.lazy_evictions", float64(lz.Evictions))
		lp.set("core.lazy_decoded_mb", float64(lz.DecodedBytes)/(1<<20))
	}
	for _, mix := range coldMix {
		name := "server." + mix.class + "_ms"
		if mix.class == "summary" {
			name = "server.summary_ms"
		}
		lp.set(name, median(coldRun.byClass[mix.class]))
	}

	return lp.cluster(ctx, in, eager)
}

// cluster times the split and one /v1/cell through a router over two
// in-process shard servers against the same request on a single node.
func (lp *layerPass) cluster(ctx context.Context, in *serveInputs, single *server.Server) error {
	var shards []*core.Cube
	d, err := lp.tr.timed(0, "cluster.split", func() (err error) { shards, err = cluster.Split(in.cube, 2); return err })
	if err != nil {
		return err
	}
	lp.set("cluster.split_s", d.Seconds())
	var urls []string
	for _, shard := range shards {
		shard := shard
		srv, err := server.NewContext(ctx, func() (*core.Cube, server.LoadInfo, error) { return shard, server.LoadInfo{}, nil },
			"shard", server.Config{Logger: quiet})
		if err != nil {
			return err
		}
		defer func() { _ = srv.Close() }() // nothing to flush: no WAL
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	f, err := os.Open(in.snapshot)
	if err != nil {
		return err
	}
	meta, err := core.LoadMeta(f)
	_ = f.Close() // read-only
	if err != nil {
		return err
	}
	router, err := cluster.NewRouter(meta, urls, cluster.RouterConfig{Logger: quiet})
	if err != nil {
		return err
	}
	// Fresh URLs, so neither side answers from a response cache.
	var routed, directMs []float64
	probe := sample(in.v1, 10*lp.sc.layerSamples)
	for _, r := range probe {
		d, rec := handle(router.Handler(), http.MethodGet, r.url, nil)
		lp.res.attempted++
		if rec.Code != http.StatusOK {
			lp.res.fail("router %s: status %d: %.200s", r.url, rec.Code, rec.Body.Bytes())
		}
		routed = append(routed, ms(d))
		d, _ = handle(single.Handler(), http.MethodGet, r.url, nil)
		directMs = append(directMs, ms(d))
	}
	lp.set("cluster.router_cell_ms", median(routed))
	lp.set("cluster.router_overhead_ms", median(routed)-median(directMs))
	return nil
}

// commit follows appends on the ingest workload's inputs: parse, journal,
// sync and fold called directly on a cube patched in place; then whole
// appends through an in-process server with a WAL, a burst of eight at
// once, a restart that replays the journal, and the reader mix with no
// writer beside it.
func (lp *layerPass) commit(ctx context.Context) error {
	tr, sc := lp.tr, lp.sc
	in, err := buildIngestInputs(sc, lp.seed, lp.dir)
	if err != nil {
		return err
	}
	schema := in.ds.Schema
	cube, err := core.BuildContext(ctx, in.ds.DB, core.Config{
		MinCount: minCount(in.ds.DB.Len()), Epsilon: 0.1, Plan: in.ds.DefaultPlan(),
		Workers: buildWorkers, DeltaLedger: true,
	})
	if err != nil {
		return err
	}
	wal, err := ingest.OpenContext(ctx, filepath.Join(lp.dir, "direct.wal"))
	if err != nil {
		return err
	}
	n := sc.layerSamples
	if n > len(in.bodies)/2 {
		n = len(in.bodies) / 2
	}
	var parseUs, appendUs, syncMs, deltaMs, touched, admitted []float64
	for i := 0; i < n; i++ {
		root := tr.begin(0, "commit")
		var batch *pathdb.DB
		d, err := tr.timed(root, "pathdb.parse", func() (err error) {
			batch, err = pathdb.Read(bytes.NewReader(in.bodies[i]), schema)
			return err
		})
		if err != nil {
			return err
		}
		parseUs = append(parseUs, us(d)/batchRecords)
		if d, err = tr.timed(root, "ingest.wal_append", func() error { return wal.Append(schema, batch.Records) }); err != nil {
			return err
		}
		appendUs = append(appendUs, us(d))
		if d, err = tr.timed(root, "ingest.wal_sync", wal.Sync); err != nil {
			return err
		}
		syncMs = append(syncMs, ms(d))
		var stats *incr.Stats
		d, err = tr.timed(root, "incr.apply_delta", func() (err error) {
			stats, err = incr.ApplyDelta(cube, in.ds.DB, batch.Records)
			return err
		})
		if err != nil {
			return err
		}
		tr.end(root)
		deltaMs = append(deltaMs, ms(d))
		touched = append(touched, float64(stats.CellsTouched))
		admitted = append(admitted, float64(stats.CellsAdmitted))
		lp.res.attempted++
	}
	lp.set("pathdb.parse_us_per_record", median(parseUs))
	lp.set("ingest.wal_append_us", median(appendUs))
	lp.set("ingest.wal_sync_ms", median(syncMs))
	lp.set("ingest.wal_bytes_per_record", float64(wal.Size())/float64(n*batchRecords))
	lp.set("incr.apply_delta_ms", median(deltaMs))
	lp.set("incr.cells_touched_mean", mean(touched))
	lp.set("incr.cells_admitted_mean", mean(admitted))
	if err := wal.Close(); err != nil {
		return err
	}

	// Whole appends through the handler. The pool's second half is used, so
	// these batches are new to the server's own cube.
	walPath := filepath.Join(lp.dir, "server.wal")
	open := func() (*server.Server, time.Duration, error) {
		start := time.Now()
		srv, err := server.NewContext(ctx,
			server.FileLoader(in.basePath, server.BuildOptions{MinSupport: minSupport, Epsilon: 0.1, Workers: buildWorkers}),
			in.basePath, server.Config{Logger: quiet, WALPath: walPath})
		return srv, time.Since(start), err
	}
	srv, firstOpen, err := open()
	if err != nil {
		return err
	}
	post := func(body []byte) (time.Duration, error) {
		d, rec := handle(srv.Handler(), http.MethodPost, "/admin/append", body)
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("append: status %d: %.200s", rec.Code, rec.Body.Bytes())
		}
		return d, nil
	}
	bodies := in.bodies[len(in.bodies)/2:]
	const sequential = 3
	var appendMs []float64
	for _, body := range bodies[:sequential] {
		d, err := post(body)
		if err != nil {
			return err
		}
		appendMs = append(appendMs, ms(d))
	}
	lp.set("server.append_ms", median(appendMs))
	lp.set("ingest.commit_other_ms", median(appendMs)-
		(median(parseUs)*batchRecords+median(appendUs))/1e3-median(syncMs)-median(deltaMs))

	// Kill-free restart: close, reopen on the same journal, and charge the
	// extra over the first open to the entries replayed.
	if err := srv.Close(); err != nil {
		return err
	}
	var reopen time.Duration
	if srv, reopen, err = open(); err != nil {
		return err
	}
	defer func() { _ = srv.Close() }() // the pass is over; a close error changes nothing
	lp.set("ingest.replay_ms_per_entry", ms(reopen-firstOpen)/sequential)

	// Eight appends at once: the group commit a one-writer loop never sees.
	groupsBefore := srv.Metrics().Ingest.Groups
	var wg sync.WaitGroup
	var mu sync.Mutex
	var burstErr error
	var slowest time.Duration
	for _, body := range bodies[sequential : sequential+8] {
		wg.Add(1)
		go func(body []byte) {
			defer wg.Done()
			d, err := post(body)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				burstErr = err
			}
			if d > slowest {
				slowest = d
			}
		}(body)
	}
	wg.Wait()
	if burstErr != nil {
		return burstErr
	}
	lp.res.attempted += sequential + 8
	lp.set("ingest.burst8_ack_ms", ms(slowest))
	lp.set("ingest.burst8_groups", float64(srv.Metrics().Ingest.Groups-groupsBefore))

	// The ingest_mixed reader with the writer off.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := newClient(ts.URL)
	defer c.close()
	ck := newChecker(in.oracle, 0, 0)
	ck.atLeast = true
	idle := closedLoop(ctx, c, ingestReaderStream(in, lp.seed), ck, tailLoop*sc.warmup, readerThink)
	lp.res.addLoop("idle reader", idle)
	lp.set("server.read_p99_idle_ms", lp.p99("idle reader", idle.latMs))
	return nil
}

// tailLoop is how many warm-up lengths a loop runs when its p99 is wanted:
// long enough at the std scale for a thousand samples.
const tailLoop = 4

// p99 returns the 99th percentile of a loop's latencies. Where the samples
// do not support one the median stands in, which the smoke scale tolerates
// and the std scale reports as a failed check.
func (lp *layerPass) p99(loop string, latMs []float64) float64 {
	v, ok := p99OrMedian(latMs)
	if !ok && lp.sc.checkRegime {
		lp.res.problem("%s: %d samples are too few for a p99", loop, len(latMs))
	}
	return v
}
