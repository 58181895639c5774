package server

import (
	"net/http"
	"strings"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/oracle"
)

// TestCuboidsCensus pins the GET /v1/cuboids shape: the full cuboid list in
// CuboidSummaries order (including empty cuboids), plus the cube-identity
// fields a cluster router compares across shards at startup.
func TestCuboidsCensus(t *testing.T) {
	_, cube := oracle.Table1(t, oracle.Views, oracle.Mined(0))
	s := newTestServer(t, cube, quietConfig())

	rec, body := get(t, s.Handler(), "/v1/cuboids")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if body["source"] != "test" {
		t.Errorf("source = %v, want test", body["source"])
	}
	if body["min_count"].(float64) != 2 {
		t.Errorf("min_count = %v, want 2", body["min_count"])
	}
	if body["path_levels"].(float64) != 2 {
		t.Errorf("path_levels = %v, want 2 (base + transport)", body["path_levels"])
	}
	dims := body["dimensions"].([]any)
	if len(dims) != len(cube.Schema.Dims) {
		t.Fatalf("dimensions = %v, want %d entries", dims, len(cube.Schema.Dims))
	}
	for i, h := range cube.Schema.Dims {
		if dims[i] != h.Dimension() {
			t.Errorf("dimensions[%d] = %v, want %s", i, dims[i], h.Dimension())
		}
	}
	if body["cells"].(float64) != float64(cube.NumCells()) {
		t.Errorf("cells = %v, want %d", body["cells"], cube.NumCells())
	}

	// Unlike /v1/summary, the census is exhaustive: one entry per planned
	// cuboid, empty or not, in deterministic summary order.
	summaries := cube.CuboidSummaries()
	cuboids := body["cuboids"].([]any)
	if len(cuboids) != len(summaries) {
		t.Fatalf("census lists %d cuboids, plan has %d", len(cuboids), len(summaries))
	}
	var total float64
	for i, raw := range cuboids {
		cj := raw.(map[string]any)
		if cj["key"] != summaries[i].Key {
			t.Errorf("cuboids[%d].key = %v, want %s", i, cj["key"], summaries[i].Key)
		}
		if cj["cells"].(float64) != float64(summaries[i].Cells) {
			t.Errorf("cuboids[%d].cells = %v, want %d", i, cj["cells"], summaries[i].Cells)
		}
		total += cj["cells"].(float64)
	}
	if total != float64(cube.NumCells()) {
		t.Errorf("census cell total %v, cube holds %d", total, cube.NumCells())
	}
}

// TestAppendBodyLimit checks Config.MaxAppendBytes: a body over the cap is
// refused with 413 and the serving snapshot stays untouched. The limit is
// set to exactly one record line so the truncated prefix still parses and
// the size violation — not a parse error — is what surfaces.
func TestAppendBodyLimit(t *testing.T) {
	ex, cube := oracle.Table1(t, oracle.Base, core.Config{MinCount: 2})
	line := "tennis,nike|f:1 s:2\n"
	cfg := quietConfig()
	cfg.MaxAppendBytes = int64(len(line))
	s := newTestServer2(t, func() (*core.Cube, LoadInfo, error) { return cube, LoadInfo{DB: ex.DB}, nil }, cfg)

	rec, body := postBody(t, s.Handler(), "/admin/append", line+line)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413: %s", rec.Code, rec.Body.String())
	}
	msg := body["error"].(string)
	if !strings.Contains(msg, "exceeds the 20-byte append limit") {
		t.Errorf("413 error %q does not name the limit", msg)
	}
	if got := s.Snapshot().DB.Len(); got != ex.DB.Len() {
		t.Errorf("rejected append changed the database: %d records, want %d", got, ex.DB.Len())
	}

	// At the cap exactly, the append goes through.
	if rec, _ := postBody(t, s.Handler(), "/admin/append", line); rec.Code != http.StatusOK {
		t.Errorf("at-limit body: status %d, want 200: %s", rec.Code, rec.Body.String())
	}
}
