package server

// v2 query-surface tests: the OLAP handler's operations and error shapes,
// the bounded append queue's 503, and the acceptance scenario for partial
// materialization — /v1 responses over a snapshot missing cuboids are
// byte-identical to the full server's, because the missing cells are
// reconstructed exactly at query time.

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"flowcube/internal/core"
	"flowcube/internal/paperex"
	"flowcube/internal/pathdb"
	"flowcube/internal/transact"
)

func TestQueryV2Ops(t *testing.T) {
	_, cube := buildExampleCube(t)
	s := newTestServer(t, cube, quietConfig())
	h := s.Handler()

	t.Run("materialized cell", func(t *testing.T) {
		rec, body := get(t, h, "/v2/query?op=cell&cell=product=shoes,brand=nike")
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		cells := body["cells"].([]any)
		if len(cells) != 1 {
			t.Fatalf("cells = %v, want 1", len(cells))
		}
		c0 := cells[0].(map[string]any)
		if c0["provenance"] != "materialized" || c0["exact"] != true {
			t.Errorf("provenance/exact = %v/%v, want materialized/true", c0["provenance"], c0["exact"])
		}
		if c0["source"].(map[string]any)["count"].(float64) != 3 {
			t.Errorf("source count = %v, want 3", c0["source"])
		}
	})

	t.Run("rollup", func(t *testing.T) {
		rec, body := get(t, h, "/v2/query?op=rollup&cell=product=shoes,brand=nike&dim=product")
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		c0 := body["cells"].([]any)[0].(map[string]any)
		if c0["cell"] != "product=clothing,brand=nike" {
			t.Errorf("rolled up to %q, want product=clothing,brand=nike", c0["cell"])
		}
	})

	t.Run("slice", func(t *testing.T) {
		rec, body := get(t, h, "/v2/query?op=slice&select=brand=nike")
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		cells := body["cells"].([]any)
		if len(cells) == 0 {
			t.Fatal("slice answered no cells")
		}
		for _, c := range cells {
			if cell := c.(map[string]any)["cell"].(string); !strings.Contains(cell, "brand=nike") {
				t.Errorf("slice cell %q does not pin brand=nike", cell)
			}
		}
	})

	t.Run("ancestor fallback", func(t *testing.T) {
		// (sandals, nike) is below δ=2; the v1 inference rule answers.
		rec, body := get(t, h, "/v2/query?op=cell&cell=product=sandals,brand=nike")
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		c0 := body["cells"].([]any)[0].(map[string]any)
		if c0["provenance"] != "ancestor" || c0["exact"] != false {
			t.Errorf("provenance/exact = %v/%v, want ancestor/false", c0["provenance"], c0["exact"])
		}
	})

	t.Run("errors", func(t *testing.T) {
		for url, status := range map[string]int{
			"/v2/query?op=pivot":                       http.StatusBadRequest,
			"/v2/query?op=rollup&cell=product=shoes":   http.StatusBadRequest, // missing dim
			"/v2/query?cell=product=bogus":             http.StatusBadRequest,
			"/v2/query?cell=product=shoes&pathlevel=9": http.StatusBadRequest,
			"/v2/query?op=slice&select=brand":          http.StatusBadRequest,
		} {
			if rec, _ := get(t, h, url); rec.Code != status {
				t.Errorf("GET %s: status %d, want %d", url, rec.Code, status)
			}
		}
	})
}

// prunedExample builds the running example twice — eager and with every
// path-level-0 cuboid but the finest dropped — without exceptions (a fold
// cannot rebuild them) and with MinCount 1, so no iceberg truncation blocks
// reconstruction: each dropped cell folds exactly from the finest cuboid,
// certified by the census of its path-level-1 twin.
func prunedExample(t *testing.T) (eager, pruned *core.Cube, dropped []core.CuboidSpec) {
	t.Helper()
	build := func() *core.Cube {
		ex := paperex.New()
		plan := transact.Plan{PathLevels: []pathdb.PathLevel{
			ex.BasePathLevel(),
			ex.TransportPathLevel(),
		}}
		cube, err := core.Build(ex.DB, core.Config{MinCount: 1, Plan: plan})
		if err != nil {
			t.Fatal(err)
		}
		return cube
	}
	eager, pruned = build(), build()
	specs := eager.MaterializedSpecs()
	for _, s := range specs {
		finest := true
		for _, o := range specs {
			finest = finest && o.Item.Dominates(s.Item)
		}
		if s.PathLevel == 0 && !finest && pruned.DropCuboid(s) != nil {
			dropped = append(dropped, s)
		}
	}
	if len(dropped) == 0 {
		t.Fatal("nothing dropped; the parity test needs computed cells")
	}
	return eager, pruned, dropped
}

// TestPrunedV1Parity is the /v1 acceptance bar for partial materialization:
// every /v1/cell response over the pruned snapshot — including
// cells of dropped cuboids, answered through query-time reconstruction —
// must match the eager server's byte for byte, along with the 404 shape.
func TestPrunedV1Parity(t *testing.T) {
	eager, pruned, dropped := prunedExample(t)
	se := newTestServer(t, eager, quietConfig())
	sp := newTestServer(t, pruned, quietConfig())

	var urls []string
	for _, spec := range eager.MaterializedSpecs() {
		cb := eager.Cuboid(spec)
		for _, cell := range cb.SortedCells() {
			urls = append(urls,
				"/v1/cell?cell="+core.FormatCell(eager.Schema, cell.Values)+
					"&pathlevel="+string(rune('0'+spec.PathLevel)))
		}
	}
	urls = append(urls, "/v1/cell?cell=product=socks,brand=nike") // 400 on both

	fetch := func(h http.Handler, url string) (int, string) {
		req := httptest.NewRequest(http.MethodGet, url, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, loadedAtRe.ReplaceAllString(rec.Body.String(), `"loaded_at": "<pinned>"`)
	}
	for _, u := range urls {
		wantCode, wantBody := fetch(se.Handler(), u)
		gotCode, gotBody := fetch(sp.Handler(), u)
		if gotCode != wantCode || gotBody != wantBody {
			t.Errorf("GET %s diverged on the pruned snapshot\neager %d: %s\npruned %d: %s",
				u, wantCode, wantBody, gotCode, gotBody)
		}
	}

	// A cell of a dropped cuboid answers /v2 with computed provenance and
	// the folded descendants listed.
	spec := dropped[0]
	values, ok := eager.EnumerateCellValues(spec)
	if !ok || len(values) == 0 {
		t.Fatalf("dropped cuboid %s has no enumerable cells", spec.Key())
	}
	u := "/v2/query?op=cell&pathlevel=" + string(rune('0'+spec.PathLevel)) +
		"&cell=" + core.FormatCell(eager.Schema, values[0])
	rec, body := get(t, sp.Handler(), u)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", u, rec.Code, rec.Body.String())
	}
	c0 := body["cells"].([]any)[0].(map[string]any)
	if c0["provenance"] != "computed" || c0["exact"] != true {
		t.Fatalf("dropped cell provenance/exact = %v/%v, want computed/true", c0["provenance"], c0["exact"])
	}
	if len(c0["folded"].([]any)) == 0 {
		t.Fatal("computed cell lists no folded descendants")
	}

	// /v2/partial over the pruned snapshot serves the census and at least
	// one usable descendant cuboid for the same cell (over the eager one the
	// cuboid is materialized, so the planner never folds it and the shard
	// sends the cell alone).
	pu := "/v2/partial?pathlevel=" + string(rune('0'+spec.PathLevel)) +
		"&cell=" + core.FormatCell(eager.Schema, values[0])
	rec, body = get(t, sp.Handler(), pu)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", pu, rec.Code, rec.Body.String())
	}
	if body["census"].(float64) < 1 {
		t.Errorf("partial census = %v, want >= 1", body["census"])
	}
	if len(body["descendants"].([]any)) == 0 {
		t.Error("partial lists no descendant fold sources")
	}
}

// TestAppendQueueFull503 pins the HTTP face of ingest.Config.MaxPending:
// with the commit loop stalled and the queue full, POST /admin/append sheds
// load with 503 + Retry-After, while the queued append still commits.
func TestAppendQueueFull503(t *testing.T) {
	ex := paperex.New()
	cfg := quietConfig()
	cfg.GroupLimit = 1
	cfg.MaxPending = 1
	s := newTestServer2(t, paperexLoader(ex, paperexConfig(ex)), cfg)
	h := s.Handler()
	body := recordsBody(t, ex.DB.Schema, ex.DB.Records[:1])

	// Stall the commit loop so submitted appends stay queued.
	gate := make(chan struct{})
	execRunning := make(chan struct{})
	var execWG sync.WaitGroup
	execWG.Add(1)
	go func() {
		defer execWG.Done()
		_ = s.committer.Exec(func() {
			close(execRunning)
			<-gate
		})
	}()
	<-execRunning

	type result struct {
		code int
		body string
	}
	first := make(chan result, 1)
	go func() {
		req := httptest.NewRequest(http.MethodPost, "/admin/append", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		first <- result{rec.Code, rec.Body.String()}
	}()
	// The first append is admitted: the stalled exec has already been
	// dequeued, so depth 1 is the append sitting at MaxPending.
	for s.committer.Stats().QueueDepth < 1 {
		time.Sleep(time.Millisecond)
	}

	req := httptest.NewRequest(http.MethodPost, "/admin/append", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("overflow append: status %d, want 503: %s", rec.Code, rec.Body.String())
	}
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Fatalf("overflow append: Retry-After = %q, want \"1\"", ra)
	}
	if !strings.Contains(rec.Body.String(), "queue is full") {
		t.Fatalf("overflow append body: %s", rec.Body.String())
	}

	close(gate)
	execWG.Wait()
	if r := <-first; r.code != http.StatusOK {
		t.Fatalf("admitted append failed after the stall: status %d: %s", r.code, r.body)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// newTestServer2 builds a server over an arbitrary loader.
func newTestServer2(t testing.TB, loader Loader, cfg Config) *Server {
	t.Helper()
	s, err := New(loader, "test", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
