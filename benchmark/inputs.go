package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"flowcube"
	"flowcube/internal/core"
	"flowcube/internal/mining"
)

// scale fixes the sizes that differ between what BENCHMARK.json measures
// and what go test runs. "std" is sized so that one run (set-up, warm-up,
// the window, and the ingest recovery) ends in about half a minute on two
// cores, because the driver makes 92 runs in under an hour. "smoke" only
// proves the harness end to end inside go test; it is two-dimensional
// because mining cost follows the absolute δ, not the path count, and a
// few hundred three-dimensional paths at δ = 3 mine slower than std does.
type scale struct {
	name string

	// build: the paper's experiment, one flowquery build per cycle.
	buildDims, buildPaths int
	// serve_hot and serve_cold share one partially materialized cube.
	serveDims, servePaths int
	// ingest_mixed: base database plus a held-out pool of append batches.
	ingestDims, ingestBase, poolBatches int

	hotURLs        int           // distinct URLs of serve_hot; must fit flowserve's 1024-entry response cache
	lazyCacheBytes int64         // flowserve -lazy-cache on serve_cold; must be well below the decoded cube
	multiPop       int           // pre-verified roll-up and multi-cell requests each
	seconds        int           // default window when -seconds is not given
	warmup         time.Duration // discarded traffic before the window, part of set-up
	layerSamples   int           // timed calls per layer probe
	aaSeeds        int           // seeds per A/A set
	checkRegime    bool          // cache-regime and sample-count assertions only hold at full size
}

var scales = map[string]scale{
	"std": {
		name:      "std",
		buildDims: 3, buildPaths: 2000,
		serveDims: 4, servePaths: 1000,
		ingestDims: 3, ingestBase: 2000, poolBatches: 200,
		hotURLs: 512, lazyCacheBytes: 4 << 20, multiPop: 256,
		seconds: 10, warmup: time.Second, layerSamples: 20, aaSeeds: 10, checkRegime: true,
	},
	"smoke": {
		name:      "smoke",
		buildDims: 2, buildPaths: 1000,
		serveDims: 2, servePaths: 1000,
		ingestDims: 2, ingestBase: 1000, poolBatches: 30,
		hotURLs: 128, lazyCacheBytes: 256 << 10, multiPop: 32,
		seconds: 1, warmup: 200 * time.Millisecond, layerSamples: 5, aaSeeds: 2,
	},
}

const (
	// poolSeed is the GenConfig.Seed of every dataset. It fixes the
	// hierarchies and the pool of valid location sequences; --seed then
	// chooses which records of a generated superset a run sees, and in which
	// order. Mining cost is set by the sequence pool, not by the records:
	// with the pool re-drawn per seed one flowquery build took 1.8 s at
	// seed 1 and 62 s at seed 4 on the same sizes, which would bury every
	// bound under input variance.
	poolSeed = 1
	// batchRecords is the size of one append batch.
	batchRecords = 10
	// minSupport is δ as a share of the database, flowquery's and
	// flowserve's own default.
	minSupport = 0.01
	// buildWorkers is passed as -workers wherever a binary takes it, and to
	// the in-process builds: the host has two cores.
	buildWorkers = 2
	// setupRepeats is how often the repeatable part of a workload's set-up
	// runs (server start and warm-up); setup_s takes the median.
	setupRepeats = 3
	// cycleLoads is how often a build cycle reopens its snapshot.
	cycleLoads = 3
	// readerThink is the pause of the ingest_mixed reader between an answer
	// and its next request. Back to back, the reader keeps the second core
	// busy and the writer's commit rate follows wherever the hypervisor has
	// put the two vCPUs that minute (28 records per second in one ten
	// minutes, 18 in the next, on the same code).
	readerThink = time.Millisecond
)

// roleRNG seeds one role's random stream from the run seed, so that every
// stream is a pure function of (seed, role) and roles do not share draws.
func roleRNG(seed int64, role string) *rand.Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(role)) // a hash.Hash never fails to write
	return rand.New(rand.NewSource(seed*1_000_003 + int64(h.Sum64()>>1)))
}

// dataset generates base+held records over dims dimensions: a superset a
// quarter larger than needed comes from flowcube.Generate under poolSeed,
// the run seed permutes it, the first base records become the returned
// dataset's database and the next held are returned apart (the append pool).
func dataset(dims, base, held int, seed int64) (*flowcube.Dataset, []flowcube.Record, error) {
	cfg := flowcube.DefaultGenConfig()
	cfg.Seed = poolSeed
	cfg.NumDims = dims
	cfg.NumPaths = base + held + base/4
	ds, err := flowcube.Generate(cfg)
	if err != nil {
		return nil, nil, err
	}
	all := ds.DB.Records
	perm := roleRNG(seed, "dataset").Perm(len(all))
	db := flowcube.NewDB(ds.Schema)
	for _, i := range perm[:base] {
		db.MustAppend(all[i])
	}
	pool := make([]flowcube.Record, held)
	for k, i := range perm[base : base+held] {
		pool[k] = all[i]
	}
	ds.DB = db
	return ds, pool, nil
}

// writeDataset writes ds in the format flowquery and flowserve read.
func writeDataset(ds *flowcube.Dataset, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := ds.WriteTo(f); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	return f.Close()
}

// recordsText renders records in the path-database text format, the body
// POST /admin/append takes.
func recordsText(schema *flowcube.Schema, recs []flowcube.Record) ([]byte, error) {
	db := flowcube.NewDB(schema)
	for _, r := range recs {
		if err := db.Append(r); err != nil {
			return nil, err
		}
	}
	var buf bytes.Buffer
	if _, err := db.WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// minCount resolves δ for n paths as the binaries do.
func minCount(n int) int64 {
	c, err := mining.ResolveMinCount(mining.Options{MinSupport: minSupport}, n)
	if err != nil {
		panic(err) // minSupport is a constant inside (0, 1]
	}
	return c
}

// oracle counts paths per cell straight from the records, for every item
// level of the plan: the expected "count" of any cell a server may return,
// computed without any of the code under test. A cell's count does not
// depend on the path level.
func oracle(ds *flowcube.Dataset) map[string]int64 {
	schema := ds.Schema
	dims := len(schema.Dims)
	out := make(map[string]int64)
	level := make([]int, dims)
	values := make([]flowcube.NodeID, dims)
	var walk func(d int)
	walk = func(d int) {
		if d == dims {
			for _, rec := range ds.DB.Records {
				for i, l := range level {
					values[i] = schema.Dims[i].AncestorAt(rec.Dims[i], l)
				}
				out[core.FormatCell(schema, values)]++
			}
			return
		}
		for l := 0; l <= schema.Dims[d].Depth(); l++ {
			level[d] = l
			walk(d + 1)
		}
	}
	walk(0)
	return out
}

// request is one HTTP GET of a request stream with what a correct answer
// must say.
type request struct {
	class string // v2_cell, v1_cell, v2_computed, v2_rollup, v2_multi, summary
	url   string // path and query
	// wantCell is the canonical name of the one cell a single-cell request
	// must answer; wantProv its provenance. wantCells is the size of a
	// multi-cell answer.
	wantCell  string
	wantProv  string
	wantCells int
}

func cellURL(route, name string, pathLevel int) string {
	return route + "?" + url.Values{"cell": {name}, "pathlevel": {strconv.Itoa(pathLevel)}}.Encode()
}

func v2CellRequest(class, name string, pathLevel int, prov string) request {
	return request{class: class, url: cellURL("/v2/query", name, pathLevel), wantCell: name, wantProv: prov}
}

var summaryRequest = request{class: "summary", url: "/v1/summary"}

// serveInputs is everything serve_hot and serve_cold need besides the
// server: the snapshot file, the census, the oracle and the request
// populations.
type serveInputs struct {
	snapshot      string
	snapshotBytes int64
	paths         int
	cells         int // /v1/summary census
	cuboids       int
	oracle        map[string]int64
	// materialized, v1 (the same cells through /v1/cell), computed, rollup
	// and multi are the request populations of serve_cold; serve_hot samples
	// its URLs from materialized.
	materialized, v1, computed, rollup, multi []request
	// cube is kept only when the caller asks for it (the layer pass).
	cube *flowcube.Cube
}

// partialPlan splits the plan's cuboids into those serve.fcb materializes
// and those it drops: a cuboid is dropped when its item levels sum to at
// most 2 and its path level is not 0 (paper §4.3 partial materialization).
// The same item level at path level 0 stays, and anchors the census that
// certifies cells computed for the dropped ones.
func partialPlan(schema *flowcube.Schema, pathLevels int) (keep, dropped []flowcube.CuboidSpec) {
	dims := len(schema.Dims)
	level := make([]int, dims)
	var walk func(d, sum int)
	walk = func(d, sum int) {
		if d == dims {
			for pl := 0; pl < pathLevels; pl++ {
				spec := flowcube.CuboidSpec{Item: append(flowcube.ItemLevel(nil), level...), PathLevel: pl}
				if sum <= 2 && pl != 0 {
					dropped = append(dropped, spec)
				} else {
					keep = append(keep, spec)
				}
			}
			return
		}
		for l := 0; l <= schema.Dims[d].Depth(); l++ {
			level[d] = l
			walk(d+1, sum+l)
		}
	}
	walk(0, 0)
	return keep, dropped
}

// buildServeInputs generates the serving dataset, builds serve.fcb through
// the root flowcube API (δ = 1 %, no exceptions, τ = 0, no ledger, partial
// materialization), derives the request populations and saves the snapshot
// under dir. keepCube leaves the in-memory cube in the result; otherwise it
// is released before any server starts.
func buildServeInputs(ctx context.Context, sc scale, seed int64, dir string, keepCube bool) (*serveInputs, error) {
	ds, _, err := dataset(sc.serveDims, sc.servePaths, 0, seed)
	if err != nil {
		return nil, err
	}
	plan := ds.DefaultPlan()
	keep, dropped := partialPlan(ds.Schema, len(plan.PathLevels))
	cfg, err := flowcube.NewConfig(plan,
		flowcube.WithDelta(minCount(sc.servePaths)), flowcube.WithWorkers(buildWorkers))
	if err != nil {
		return nil, err
	}
	cfg.Cuboids = keep
	cube, err := flowcube.BuildContext(ctx, ds.DB, cfg)
	if err != nil {
		return nil, err
	}

	in := &serveInputs{
		snapshot: filepath.Join(dir, "serve.fcb"),
		paths:    sc.servePaths,
		cells:    cube.NumCells(),
		cuboids:  len(cube.Cuboids),
		oracle:   oracle(ds),
	}

	// Materialized population: every cell of every kept cuboid.
	type anchor struct {
		spec   flowcube.CuboidSpec
		values []flowcube.NodeID
	}
	var anchors []anchor
	for _, spec := range keep {
		cb := cube.Cuboid(spec)
		if cb == nil {
			continue
		}
		for _, cell := range cb.SortedCells() {
			r := v2CellRequest("v2_cell", core.FormatCell(ds.Schema, cell.Values), spec.PathLevel, "materialized")
			in.materialized = append(in.materialized, r)
			in.v1 = append(in.v1, v1Twin(r))
			anchors = append(anchors, anchor{spec, cell.Values})
		}
	}

	// Computed population: cells of dropped cuboids that Answer certifies as
	// reconstructed exactly from materialized descendants.
	for _, spec := range dropped {
		twin := cube.Cuboid(flowcube.CuboidSpec{Item: spec.Item, PathLevel: 0})
		if twin == nil {
			continue
		}
		for _, cell := range twin.SortedCells() {
			a, err := cube.Answer(ctx, flowcube.Query{Spec: spec, Values: cell.Values})
			if err != nil || !a.Cells[0].Exact || a.Cells[0].Provenance != flowcube.ComputedFromDescendants {
				continue
			}
			in.computed = append(in.computed,
				v2CellRequest("v2_computed", core.FormatCell(ds.Schema, cell.Values), spec.PathLevel, "computed"))
		}
	}

	// Roll-up and multi-cell populations: seeded samples of materialized
	// cells, each request answered once in process so that only requests
	// whose every cell is exact enter the stream.
	rng := roleRNG(seed, "serve-populations")
	for _, i := range rng.Perm(len(anchors)) {
		if len(in.rollup) >= sc.multiPop && len(in.multi) >= sc.multiPop {
			break
		}
		a := anchors[i]
		name := core.FormatCell(ds.Schema, a.values)
		coarse, fine := -1, -1 // a dimension that can roll up, one that can drill down
		for d, l := range a.spec.Item {
			if l > 0 && coarse < 0 {
				coarse = d
			}
			if l < ds.Schema.Dims[d].Depth() && fine < 0 {
				fine = d
			}
		}
		if coarse >= 0 && len(in.rollup) < sc.multiPop {
			q := flowcube.Query{Op: flowcube.OpRollUp, Spec: a.spec, Values: a.values, Dim: coarse}
			if ans, err := cube.Answer(ctx, q); err == nil && ans.Cells[0].Exact {
				in.rollup = append(in.rollup, request{
					class: "v2_rollup",
					url: "/v2/query?" + url.Values{"op": {"rollup"}, "cell": {name},
						"pathlevel": {strconv.Itoa(a.spec.PathLevel)},
						"dim":       {ds.Schema.Dims[coarse].Dimension()}}.Encode(),
					wantCell: core.FormatCell(ds.Schema, ans.Cells[0].Values),
					wantProv: ans.Cells[0].Provenance.String(),
				})
			}
		}
		if len(in.multi) >= sc.multiPop {
			continue
		}
		// Drill-down and slice alternate.
		params := url.Values{"cell": {name}, "pathlevel": {strconv.Itoa(a.spec.PathLevel)}, "max": {"32"}}
		q := flowcube.Query{Spec: a.spec, Values: a.values, MaxCells: 32}
		switch {
		case len(in.multi)%2 == 0 && fine >= 0:
			q.Op, q.Dim = flowcube.OpDrillDown, fine
			params.Set("op", "drilldown")
			params.Set("dim", ds.Schema.Dims[fine].Dimension())
		case len(in.multi)%2 == 1 && coarse >= 0:
			q.Op = flowcube.OpSlice
			q.Select = []flowcube.Selector{{Dim: coarse, Value: a.values[coarse]}}
			params.Set("op", "slice")
			params.Set("select", ds.Schema.Dims[coarse].Dimension()+"="+ds.Schema.Dims[coarse].Name(a.values[coarse]))
		default:
			continue
		}
		ans, err := cube.Answer(ctx, q)
		if err != nil || len(ans.Cells) == 0 || ans.Skipped > 0 {
			continue
		}
		exact := true
		for _, ca := range ans.Cells {
			exact = exact && ca.Exact
		}
		if exact {
			in.multi = append(in.multi, request{class: "v2_multi", url: "/v2/query?" + params.Encode(), wantCells: len(ans.Cells)})
		}
	}
	if len(in.materialized) == 0 || len(in.computed) == 0 || len(in.rollup) == 0 || len(in.multi) == 0 {
		return nil, fmt.Errorf("serving cube too small for the request mix: %d materialized, %d computed, %d rollup, %d multi",
			len(in.materialized), len(in.computed), len(in.rollup), len(in.multi))
	}

	f, err := os.Create(in.snapshot)
	if err != nil {
		return nil, err
	}
	if err := cube.Save(f); err != nil {
		_ = f.Close() // the Save error is the one worth reporting
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	st, err := os.Stat(in.snapshot)
	if err != nil {
		return nil, err
	}
	in.snapshotBytes = st.Size()
	if keepCube {
		in.cube = cube
	}
	return in, nil
}

// stream is one role's endless request sequence.
type stream struct {
	next func() *request
}

// v1Twin turns a /v2/query cell request into the /v1/cell request for the
// same cell.
func v1Twin(r request) request {
	u, _ := url.Parse(r.url) // built by cellURL above
	return request{class: "v1_cell", url: "/v1/cell?" + u.RawQuery, wantCell: r.wantCell}
}

// hotStream draws Zipf(1.1) over a fixed set of sc.hotURLs distinct URLs,
// one in ten asked through /v1/cell: the working set fits the response
// cache. Which cells are hot, and how popular each is, belongs to the
// workload and not to the seed: the set is an even spread over the
// materialized cells in a fixed shuffled order, so that every seed sees the
// same mix of small and large answers. The seed drives the draws.
func hotStream(in *serveInputs, sc scale, seed int64) (*stream, []request) {
	n := sc.hotURLs
	if n > len(in.materialized) {
		n = len(in.materialized)
	}
	urls := make([]request, n)
	for rank, k := range roleRNG(poolSeed, "hot-set").Perm(n) {
		i := k * len(in.materialized) / n
		urls[rank] = in.materialized[i]
		if k%10 == 9 {
			urls[rank] = in.v1[i]
		}
	}
	z := rand.NewZipf(roleRNG(seed, "hot-reader"), 1.1, 1, uint64(n-1))
	return &stream{next: func() *request { return &urls[z.Uint64()] }}, urls
}

// coldMix is serve_cold's request mix in percent.
var coldMix = []struct {
	class string
	share int
}{
	{"v2_cell", 60}, {"v1_cell", 10}, {"v2_computed", 15}, {"v2_rollup", 5}, {"v2_multi", 5}, {"summary", 5},
}

// coldStream draws uniformly within each class of coldMix: the working set
// is every cell of the cube, far beyond both of the server's caches.
func coldStream(in *serveInputs, seed int64) *stream {
	rng := roleRNG(seed, "cold-reader")
	return &stream{next: func() *request {
		p := rng.Intn(100)
		class := ""
		for _, m := range coldMix {
			if p < m.share {
				class = m.class
				break
			}
			p -= m.share
		}
		switch class {
		case "v2_cell":
			return &in.materialized[rng.Intn(len(in.materialized))]
		case "v1_cell":
			return &in.v1[rng.Intn(len(in.v1))]
		case "v2_computed":
			return &in.computed[rng.Intn(len(in.computed))]
		case "v2_rollup":
			return &in.rollup[rng.Intn(len(in.rollup))]
		case "v2_multi":
			return &in.multi[rng.Intn(len(in.multi))]
		}
		return &summaryRequest
	}}
}

// ingestInputs is what ingest_mixed needs: the base database on disk, the
// pool of append bodies, and the reader's cells.
type ingestInputs struct {
	ds       *flowcube.Dataset
	basePath string
	pool     [][]flowcube.Record // one batch each
	bodies   [][]byte            // pool in wire format
	reader   []request           // the 16 cells of the reader mix
	oracle   map[string]int64    // base counts of those cells and the apex
	apex     request
}

func buildIngestInputs(sc scale, seed int64, dir string) (*ingestInputs, error) {
	ds, held, err := dataset(sc.ingestDims, sc.ingestBase, sc.poolBatches*batchRecords, seed)
	if err != nil {
		return nil, err
	}
	in := &ingestInputs{ds: ds, basePath: filepath.Join(dir, "base.fdb"), oracle: make(map[string]int64)}
	if err := writeDataset(ds, in.basePath); err != nil {
		return nil, err
	}
	for i := 0; i < sc.poolBatches; i++ {
		batch := held[i*batchRecords : (i+1)*batchRecords]
		body, err := recordsText(ds.Schema, batch)
		if err != nil {
			return nil, err
		}
		in.pool = append(in.pool, batch)
		in.bodies = append(in.bodies, body)
	}
	// The reader asks for the top-level values of the first dimension at
	// every path level.
	d0 := ds.Schema.Dims[0]
	pathLevels := ds.DefaultPlan().PathLevels
	values := make([]flowcube.NodeID, len(ds.Schema.Dims))
	for i := range values {
		values[i] = flowcube.RootConcept
	}
	apexName := core.FormatCell(ds.Schema, values)
	in.apex = v2CellRequest("v2_cell", apexName, 0, "materialized")
	in.oracle[apexName] = int64(ds.DB.Len())
	for _, top := range d0.Children(flowcube.RootConcept) {
		values[0] = top
		name := core.FormatCell(ds.Schema, values)
		for _, rec := range ds.DB.Records {
			if d0.AncestorAt(rec.Dims[0], 1) == top {
				in.oracle[name]++
			}
		}
		for pl := range pathLevels {
			in.reader = append(in.reader, v2CellRequest("v2_cell", name, pl, "materialized"))
		}
	}
	return in, nil
}

// ingestReaderStream is the read side of ingest_mixed: nine in ten requests
// ask one of the reader cells, one in ten the summary.
func ingestReaderStream(in *ingestInputs, seed int64) *stream {
	rng := roleRNG(seed, "ingest-reader")
	return &stream{next: func() *request {
		if rng.Intn(10) == 9 {
			return &summaryRequest
		}
		return &in.reader[rng.Intn(len(in.reader))]
	}}
}
