package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flowcube/internal/core"
	"flowcube/internal/hierarchy"
	"flowcube/internal/oracle"
)

func quietConfig() Config {
	return Config{Logger: log.New(io.Discard, "", 0)}
}

// newTestServer serves a fixed cube through an in-memory loader.
func newTestServer(t testing.TB, cube *core.Cube, cfg Config) *Server {
	t.Helper()
	return newTestServer2(t, func() (*core.Cube, LoadInfo, error) { return cube, LoadInfo{}, nil }, cfg)
}

func get(t testing.TB, h http.Handler, url string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var body map[string]any
	if strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("GET %s: bad JSON: %v\n%s", url, err, rec.Body.String())
		}
	}
	return rec, body
}

func TestCellExactQuery(t *testing.T) {
	_, cube := oracle.Table1(t, oracle.Views, oracle.Mined(0))
	s := newTestServer(t, cube, quietConfig())

	rec, body := get(t, s.Handler(), "/v1/cell?cell=product=shoes,brand=nike&pathlevel=0")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if body["exact"] != true {
		t.Errorf("exact = %v, want true", body["exact"])
	}
	src := body["source"].(map[string]any)
	if src["count"].(float64) != 3 {
		t.Errorf("source count = %v, want 3 (Table-1 shoes/nike paths)", src["count"])
	}
	graph := body["graph"].(map[string]any)
	if graph["paths"].(float64) != 3 {
		t.Errorf("graph paths = %v, want 3", graph["paths"])
	}
	// All example paths start at the factory.
	roots := graph["roots"].([]any)
	if len(roots) != 1 || roots[0].(map[string]any)["location"] != "f" {
		t.Errorf("roots = %v, want single factory root", roots)
	}
}

func TestCellRollupInference(t *testing.T) {
	_, cube := oracle.Table1(t, oracle.Views, oracle.Mined(0))
	s := newTestServer(t, cube, quietConfig())

	// (sandals, nike) holds one path — below δ=2 — so the answer must come
	// from a materialized ancestor, flagged exact=false.
	rec, body := get(t, s.Handler(), "/v1/cell?cell=product=sandals,brand=nike")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if body["exact"] != false {
		t.Errorf("exact = %v, want false for a below-threshold cell", body["exact"])
	}
	src := body["source"].(map[string]any)
	if src["count"].(float64) < 2 {
		t.Errorf("ancestor count = %v, want >= δ", src["count"])
	}
}

func TestCellDOTMatchesDirectQuery(t *testing.T) {
	ex, cube := oracle.Table1(t, oracle.Views, oracle.Mined(0))
	s := newTestServer(t, cube, quietConfig())

	spec := "product=shoes,brand=nike"
	rec, _ := get(t, s.Handler(), "/v1/cell?cell="+spec+"&format=dot")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "graphviz") {
		t.Errorf("content type = %q", ct)
	}

	// The served DOT must be byte-identical to what flowquery prints for
	// the same cell spec (both call Answer then Graph.DOT).
	a, err := cube.Answer(context.Background(), core.Query{
		Spec:   core.CuboidSpec{Item: core.ItemLevel{2, 2}, PathLevel: 0},
		Values: []hierarchy.NodeID{ex.Product.MustLookup("shoes"), ex.Brand.MustLookup("nike")},
	})
	if err != nil {
		t.Fatalf("direct query failed: %v", err)
	}
	if want := a.Cells[0].Graph.DOT(spec); rec.Body.String() != want {
		t.Errorf("served DOT differs from direct query output:\n-- served --\n%s\n-- direct --\n%s",
			rec.Body.String(), want)
	}
}

func TestCellErrors(t *testing.T) {
	_, cube := oracle.Table1(t, oracle.Views, oracle.Mined(0))
	s := newTestServer(t, cube, quietConfig())

	for _, tc := range []struct {
		url  string
		want int
	}{
		{"/v1/cell?cell=bogus=shoes", http.StatusBadRequest},
		{"/v1/cell?cell=product=bogus", http.StatusBadRequest},
		{"/v1/cell?cell=product%3Dshoes&pathlevel=99", http.StatusBadRequest},
		{"/v1/cell?cell=product=shoes&pathlevel=nope", http.StatusBadRequest},
		{"/v1/cell?format=xml", http.StatusBadRequest},
	} {
		rec, body := get(t, s.Handler(), tc.url)
		if rec.Code != tc.want {
			t.Errorf("GET %s: status %d, want %d", tc.url, rec.Code, tc.want)
		}
		if body["error"] == "" {
			t.Errorf("GET %s: no error message", tc.url)
		}
	}
}

func TestSummary(t *testing.T) {
	_, cube := oracle.Table1(t, oracle.Views, oracle.Mined(0))
	s := newTestServer(t, cube, quietConfig())

	rec, body := get(t, s.Handler(), "/v1/summary")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if int(body["cells"].(float64)) != cube.NumCells() {
		t.Errorf("cells = %v, want %d", body["cells"], cube.NumCells())
	}
	if int(body["min_count"].(float64)) != 2 {
		t.Errorf("min_count = %v, want 2", body["min_count"])
	}
	dims := body["dimensions"].([]any)
	if len(dims) != 2 || dims[0] != "product" || dims[1] != "brand" {
		t.Errorf("dimensions = %v", dims)
	}
	if len(body["largest"].([]any)) == 0 {
		t.Error("no cuboids listed")
	}
}

func TestExceptions(t *testing.T) {
	_, cube := oracle.Table1(t, oracle.Views, oracle.Mined(0))
	s := newTestServer(t, cube, quietConfig())

	rec, body := get(t, s.Handler(), "/v1/exceptions?k=5")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	xs := body["exceptions"].([]any)
	if len(xs) == 0 {
		t.Fatal("no exceptions served; the example cube mines some")
	}
	if len(xs) > 5 {
		t.Errorf("k=5 returned %d exceptions", len(xs))
	}
	first := xs[0].(map[string]any)
	for _, field := range []string{"cuboid", "node", "support", "severity"} {
		if _, ok := first[field]; !ok {
			t.Errorf("exception missing %q: %v", field, first)
		}
	}

	rec, _ = get(t, s.Handler(), "/v1/exceptions?k=junk")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad k: status %d, want 400", rec.Code)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, cube := oracle.Table1(t, oracle.Views, oracle.Mined(0))
	s := newTestServer(t, cube, quietConfig())

	rec, body := get(t, s.Handler(), "/healthz")
	if rec.Code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz: %d %v", rec.Code, body)
	}

	// Two identical queries: one miss, one hit.
	get(t, s.Handler(), "/v1/cell?cell=product=shoes")
	get(t, s.Handler(), "/v1/cell?cell=product=shoes")

	rec, body = get(t, s.Handler(), "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	cache := body["cache"].(map[string]any)
	if cache["hits"].(float64) != 1 || cache["misses"].(float64) != 1 {
		t.Errorf("cache counters = %v, want 1 hit / 1 miss", cache)
	}
	routes := body["routes"].(map[string]any)
	cell := routes["GET /v1/cell"].(map[string]any)
	if cell["count"].(float64) != 2 {
		t.Errorf("cell route count = %v, want 2", cell["count"])
	}

	// Cache headers mirror the counters.
	rec, _ = get(t, s.Handler(), "/v1/cell?cell=product=shoes")
	if rec.Header().Get("X-Cache") != "hit" {
		t.Errorf("X-Cache = %q, want hit", rec.Header().Get("X-Cache"))
	}
}

func TestReloadSwapsSnapshot(t *testing.T) {
	var loads atomic.Int64
	loader := func() (*core.Cube, LoadInfo, error) {
		loads.Add(1)
		_, cube := oracle.Table1(t, oracle.Views, oracle.Mined(0))
		return cube, LoadInfo{Bytes: 4242}, nil
	}
	s := newTestServer2(t, loader, quietConfig())
	if loads.Load() != 1 {
		t.Fatalf("loader ran %d times at startup, want 1", loads.Load())
	}
	before := s.Snapshot()

	// Warm the cache, then reload: the new snapshot must start cold.
	get(t, s.Handler(), "/v1/cell?cell=product=shoes")
	if before.cache.Stats().Entries != 1 {
		t.Fatalf("cache holds %d entries, want 1", before.cache.Stats().Entries)
	}

	req := httptest.NewRequest(http.MethodPost, "/admin/reload", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("reload: %d %s", rec.Code, rec.Body.String())
	}
	if loads.Load() != 2 {
		t.Errorf("loader ran %d times, want 2", loads.Load())
	}

	// The reload response reports how the new snapshot was produced.
	var reloadBody map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &reloadBody); err != nil {
		t.Fatal(err)
	}
	if got, ok := reloadBody["snapshot_bytes"].(float64); !ok || int64(got) != 4242 {
		t.Errorf("reload snapshot_bytes = %v, want 4242", reloadBody["snapshot_bytes"])
	}
	if ms, ok := reloadBody["load_ms"].(float64); !ok || ms < 0 {
		t.Errorf("reload load_ms = %v, want non-negative number", reloadBody["load_ms"])
	}
	after := s.Snapshot()
	if after == before {
		t.Error("snapshot pointer did not change")
	}
	if after.cache.Stats().Entries != 0 {
		t.Errorf("fresh snapshot cache holds %d entries", after.cache.Stats().Entries)
	}
	if got := s.Metrics().Reloads; got != 1 {
		t.Errorf("reload counter = %d, want 1", got)
	}
	if m := s.Metrics().Snapshot; m.Bytes != 4242 || m.LoadMs < 0 || m.LoadedAt == "" {
		t.Errorf("snapshot gauges = %+v, want bytes 4242 with load time", m)
	}

	// /metrics carries the same snapshot gauges.
	_, metricsBody := get(t, s.Handler(), "/metrics")
	snapGauges, ok := metricsBody["snapshot"].(map[string]any)
	if !ok {
		t.Fatalf("/metrics missing snapshot gauges: %v", metricsBody)
	}
	if got, ok := snapGauges["snapshot_bytes"].(float64); !ok || int64(got) != 4242 {
		t.Errorf("/metrics snapshot_bytes = %v, want 4242", snapGauges["snapshot_bytes"])
	}

	// GET on the admin route is rejected.
	rec, _ = get(t, s.Handler(), "/admin/reload")
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /admin/reload: %d, want 405", rec.Code)
	}
}

// TestConcurrentQueriesDuringReload is the race-detector workout: clients
// hammer /v1/cell while reloads swap the snapshot underneath them.
func TestConcurrentQueriesDuringReload(t *testing.T) {
	loader := func() (*core.Cube, LoadInfo, error) {
		_, cube := oracle.Table1(t, oracle.Views, oracle.Mined(0))
		return cube, LoadInfo{}, nil
	}
	s := newTestServer2(t, loader, quietConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cells := []string{
		"product=shoes,brand=nike",
		"product=outerwear,brand=nike",
		"product=sandals,brand=nike", // roll-up path
		"product=shoes",
		"",
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				url := fmt.Sprintf("%s/v1/cell?cell=%s&pathlevel=%d", ts.URL, cells[(w+i)%len(cells)], i%2)
				resp, err := http.Get(url)
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					b, _ := io.ReadAll(resp.Body)
					t.Errorf("GET %s: %d %s", url, resp.StatusCode, b)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			resp, err := http.Post(ts.URL+"/admin/reload", "", nil)
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("reload %d: status %d", i, resp.StatusCode)
			}
		}
	}()
	wg.Wait()
}

func TestServeGracefulShutdown(t *testing.T) {
	_, cube := oracle.Table1(t, oracle.Views, oracle.Mined(0))
	s := newTestServer(t, cube, quietConfig())

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()

	url := "http://" + ln.Addr().String()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Serve returned %v after graceful shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after context cancellation")
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Error("server still answering after shutdown")
	}
}

func TestRequestTimeout(t *testing.T) {
	_, cube := oracle.Table1(t, oracle.Views, oracle.Mined(0))
	s := newTestServer(t, cube, Config{
		RequestTimeout: time.Millisecond,
		Logger:         log.New(io.Discard, "", 0),
	})
	// The query cannot finish before its deadline, however the scheduler
	// runs things: the test holds the response cache's flight for its key
	// open, the handler joins that flight and parks, and only the 503 that
	// TimeoutHandler writes when the deadline fires lets get return.
	const query = "cell=product=shoes"
	inFlight, release, flown := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(flown)
		s.Snapshot().cache.Do("v1|"+query, func() (*cached, int64, error) {
			close(inFlight)
			<-release
			return nil, 0, &HTTPError{http.StatusGone, "flight released by the test"}
		})
	}()
	<-inFlight
	rec, _ := get(t, s.Handler(), "/v1/cell?"+query)
	close(release)
	<-flown
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("status %d, want 503 on timeout", rec.Code)
	}
}
