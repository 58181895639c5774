package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"

	"flowcube/internal/cluster"
	"flowcube/internal/core"
	"flowcube/internal/datagen"
	"flowcube/internal/hierarchy"
	"flowcube/internal/oracle"
	"flowcube/internal/server"
)

// synthGen is the shared workload widened to three dimensions of the
// default fanouts and 20 sequences, big enough that a split spreads cells
// across every shard.
func synthGen(paths int) datagen.Config {
	cfg := oracle.Gen(1, paths)
	cfg.NumDims, cfg.DimFanouts, cfg.NumSequences = 3, datagen.Default().DimFanouts, 20
	return cfg
}

// synthCube builds a synthetic cube over synthGen(500) with all persisted
// features on. The build is cached: several tests share it, the cube is
// immutable once built, and splits share cell pointers without mutating
// them.
var synthOnce sync.Once
var synthDS *datagen.Dataset
var synthC *core.Cube
var synthErr error

func synthCube(t testing.TB) (*datagen.Dataset, *core.Cube) {
	t.Helper()
	synthOnce.Do(func() {
		synthDS = datagen.MustGenerate(synthGen(500))
		synthC, synthErr = core.Build(synthDS.DB, core.Config{
			MinCount:       5,
			Epsilon:        0.1,
			Plan:           synthDS.DefaultPlan(),
			MineExceptions: true,
			Workers:        runtime.GOMAXPROCS(0),
		})
	})
	if synthErr != nil {
		t.Fatal(synthErr)
	}
	return synthDS, synthC
}

func quietConfig() server.Config {
	return server.Config{Logger: log.New(io.Discard, "", 0)}
}

// memServer boots an in-memory single-node server over a fixed cube.
func memServer(t testing.TB, cube *core.Cube, cfg server.Config) *server.Server {
	t.Helper()
	srv, err := server.New(func() (*core.Cube, server.LoadInfo, error) {
		return cube, server.LoadInfo{}, nil
	}, "test", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// fixture is a single-node server and an equivalent router-fronted cluster
// over the same cube.
type fixture struct {
	cube   *core.Cube
	single *server.Server
	shards []*httptest.Server
	router *cluster.Router
}

// newFixture splits cube across n live shard servers and fronts them with a
// router whose metadata comes from the saved snapshot (core.LoadMeta).
func newFixture(t testing.TB, cube *core.Cube, n int) *fixture {
	t.Helper()
	parts, err := cluster.Split(cube, n)
	if err != nil {
		t.Fatal(err)
	}
	fx := &fixture{cube: cube, single: memServer(t, cube, quietConfig())}
	urls := make([]string, n)
	for i, part := range parts {
		ts := httptest.NewServer(memServer(t, part, quietConfig()).Handler())
		t.Cleanup(ts.Close)
		fx.shards = append(fx.shards, ts)
		urls[i] = ts.URL
	}
	meta, err := core.LoadMeta(bytes.NewReader(oracle.Save(t, cube)))
	if err != nil {
		t.Fatal(err)
	}
	fx.router, err = cluster.NewRouter(meta, urls, cluster.RouterConfig{
		Source: "test",
		Logger: log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fx.router.Validate(context.Background()); err != nil {
		t.Fatalf("startup validation: %v", err)
	}
	return fx
}

// get runs one request against a handler.
func get(h http.Handler, url string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// loadedAtRe normalizes the one legitimately instance-specific census
// field before byte comparison.
var loadedAtRe = regexp.MustCompile(`"loaded_at": "[^"]*"`)

// differs reports how the router's answer to url departs from the single
// node's, or "" when it does not. normalizeTime masks loaded_at (census
// endpoints only).
func (fx *fixture) differs(url string, normalizeTime bool) string {
	want := get(fx.single.Handler(), url)
	got := get(fx.router.Handler(), url)
	if got.Code != want.Code {
		return fmt.Sprintf("%s: router status %d, single node %d\nrouter body: %s", url, got.Code, want.Code, got.Body)
	}
	if gct, wct := got.Header().Get("Content-Type"), want.Header().Get("Content-Type"); gct != wct {
		return fmt.Sprintf("%s: router content type %q, single node %q", url, gct, wct)
	}
	wb, gb := want.Body.Bytes(), got.Body.Bytes()
	if normalizeTime {
		wb = loadedAtRe.ReplaceAll(wb, []byte(`"loaded_at": "X"`))
		gb = loadedAtRe.ReplaceAll(gb, []byte(`"loaded_at": "X"`))
	}
	if !bytes.Equal(wb, gb) {
		return fmt.Sprintf("%s: router body differs from single node\nrouter: %s\nsingle: %s", url, gb, wb)
	}
	return ""
}

// assertSame requires the router to answer url exactly as the single node
// does.
func (fx *fixture) assertSame(t *testing.T, url string, normalizeTime bool) {
	t.Helper()
	if d := fx.differs(url, normalizeTime); d != "" {
		t.Fatal(d)
	}
}

// cellURLs enumerates queries for every materialized cell, capped
// deterministically.
func cellURLs(cube *core.Cube, cap int) []string {
	var urls []string
	for _, s := range cube.CuboidSummaries() {
		cb := cube.Cuboids[s.Key]
		if cb == nil {
			continue
		}
		for _, cell := range cb.SortedCells() {
			urls = append(urls, fmt.Sprintf("/v1/cell?cell=%s&pathlevel=%d",
				core.FormatCell(cube.Schema, cell.Values), s.PathLevel))
		}
	}
	if len(urls) > cap {
		// Deterministic thinning that keeps coverage across the lattice
		// rather than the first cuboids only.
		step := len(urls) / cap
		var kept []string
		for i := 0; i < len(urls); i += step {
			kept = append(kept, urls[i])
		}
		urls = kept
	}
	return urls
}

// TestRouterMatchesSingleNodeByteForByte is the cluster's core contract
// (ISSUE 6 acceptance): for materialized cells, roll-ups, misses, error
// cases, exceptions, and the census endpoints, the router-fronted split
// cluster answers exactly as one server over the unsplit cube.
func TestRouterMatchesSingleNodeByteForByte(t *testing.T) {
	_, cube := synthCube(t)
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			fx := newFixture(t, cube, n)

			urls := cellURLs(cube, 60)
			if len(urls) < 20 {
				t.Fatalf("only %d materialized cell queries; fixture too small to be meaningful", len(urls))
			}
			for _, u := range urls {
				fx.assertSame(t, u, false)
			}

			// Random tuples at arbitrary abstraction levels: a mix of exact
			// hits, roll-up inferences, and 404s. The seed is fixed so failures
			// reproduce.
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < 80; i++ {
				values := make([]hierarchy.NodeID, len(cube.Schema.Dims))
				for d, h := range cube.Schema.Dims {
					values[d] = hierarchy.NodeID(rng.Intn(h.Len()))
				}
				pl := rng.Intn(len(cube.PathLevels()))
				fx.assertSame(t, fmt.Sprintf("/v1/cell?cell=%s&pathlevel=%d",
					core.FormatCell(cube.Schema, values), pl), false)
			}

			// Graphviz rendering of the same planned answer.
			fx.assertSame(t, urls[0]+"&format=dot", false)
			fx.assertSame(t, urls[len(urls)-1]+"&format=dot", false)

			// Validation errors must match byte for byte, including order of
			// checks (format before pathlevel before cell spec).
			for _, u := range []string{
				"/v1/cell?cell=bogus&format=yaml&pathlevel=zap",
				"/v1/cell?cell=bogus&pathlevel=zap",
				"/v1/cell?cell=nosuchdim=x",
				"/v1/cell?cell=&pathlevel=99",
				"/v1/exceptions?k=-1",
				"/v1/exceptions?k=many",
			} {
				fx.assertSame(t, u, false)
			}

			for _, u := range []string{
				"/v1/exceptions",
				"/v1/exceptions?k=0",
				"/v1/exceptions?k=5",
				"/v1/exceptions?k=100000",
			} {
				fx.assertSame(t, u, false)
			}

			fx.assertSame(t, "/v1/summary", true)
			fx.assertSame(t, "/v1/cuboids", true)
		})
	}
}

// TestRouterMetricsTimeRoutes: the router's /metrics reports a routed
// request with the counters and latency histogram a single node keeps.
func TestRouterMetricsTimeRoutes(t *testing.T) {
	_, cube := synthCube(t)
	fx := newFixture(t, cube, 2)
	if rec := get(fx.router.Handler(), cellURLs(cube, 1)[0]); rec.Code != http.StatusOK {
		t.Fatalf("cell query status %d: %s", rec.Code, rec.Body)
	}
	var m struct {
		Routes map[string]server.RouteMetrics `json:"routes"`
	}
	if err := json.Unmarshal(get(fx.router.Handler(), "/metrics").Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if cell := m.Routes["GET /v1/cell"]; cell.Count != 1 || cell.MaxMs <= 0 || len(cell.Buckets) == 0 {
		t.Fatalf("GET /v1/cell after one request: %+v", cell)
	}
}

// TestRouterValidateRejectsForeignShards checks the startup guard: a fleet
// serving a different cube (here: a different iceberg threshold) must be
// refused before it can answer merged queries.
func TestRouterValidateRejectsForeignShards(t *testing.T) {
	ds, cube := synthCube(t)
	other := oracle.Build(t, ds.DB, core.Config{MinCount: 50, Plan: ds.DefaultPlan()})
	parts, err := cluster.Split(other, 2)
	if err != nil {
		t.Fatal(err)
	}
	var urls []string
	for _, part := range parts {
		ts := httptest.NewServer(memServer(t, part, quietConfig()).Handler())
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	rt, err := cluster.NewRouter(cube, urls, cluster.RouterConfig{Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	err = rt.Validate(context.Background())
	if err == nil {
		t.Fatal("Validate accepted shards of a different cube")
	}
	if !strings.Contains(err.Error(), "min count") {
		t.Fatalf("unexpected validation error: %v", err)
	}
}

// TestRouterDegradesPartially checks behavior with one dead shard: census
// and exception reads answer from the live subset and flag it via
// X-Cluster-Partial; cell queries that need the dead shard fail loudly with
// 502 rather than answering wrong; health reports degraded.
func TestRouterDegradesPartially(t *testing.T) {
	_, cube := synthCube(t)
	fx := newFixture(t, cube, 2)
	deadURL := fx.shards[1].URL
	fx.shards[1].Close()

	rec := get(fx.router.Handler(), "/v1/summary")
	if rec.Code != http.StatusOK {
		t.Fatalf("partial summary status %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get(cluster.PartialHeader); !strings.Contains(got, deadURL) {
		t.Fatalf("partial summary %s header %q, want it to name %s", cluster.PartialHeader, got, deadURL)
	}
	rec = get(fx.router.Handler(), "/v1/exceptions?k=5")
	if rec.Code != http.StatusOK || rec.Header().Get(cluster.PartialHeader) == "" {
		t.Fatalf("partial exceptions: status %d, header %q", rec.Code, rec.Header().Get(cluster.PartialHeader))
	}

	// A cell query cannot degrade: any unreachable shard might own the
	// answer (or a better roll-up), so the router refuses.
	sawGateway := false
	for _, u := range cellURLs(cube, 40) {
		rec := get(fx.router.Handler(), u)
		switch rec.Code {
		case http.StatusBadGateway:
			sawGateway = true
		case http.StatusOK:
			// Owned by the live shard: an exact answer needs no other shard,
			// dead or not.
		default:
			t.Fatalf("%s with a dead shard: status %d: %s", u, rec.Code, rec.Body)
		}
	}
	if !sawGateway {
		t.Fatal("no cell query needed the dead shard; fixture does not exercise the failure path")
	}

	rec = get(fx.router.Handler(), "/healthz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz with a dead shard: status %d, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"degraded"`) {
		t.Fatalf("healthz body does not report degraded: %s", rec.Body)
	}

	// All shards down: census reads have nothing to merge and fail.
	fx.shards[0].Close()
	rec = get(fx.router.Handler(), "/v1/summary")
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("summary with all shards dead: status %d, want 502", rec.Code)
	}
}
