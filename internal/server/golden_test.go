package server

import (
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/paperex"
	"flowcube/internal/pathdb"
	"flowcube/internal/transact"
)

// The golden-response suites pin the read API byte-for-byte: /v1 in
// golden_v1.json — the v2 query surface must not perturb a single byte of
// the responses existing clients parse, and the cluster router's parity
// contract is stated against these same bodies — and /v2/query in
// golden_v2.json, over a pruned cube so every field of a cell answer shows
// up. Regenerate deliberately with:
//
//	go test ./internal/server -run Golden -update-golden
//
// and review the diff like any other API change.

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_v*.json from live responses")

// goldenURLs is the pinned /v1 request set: exact hits, roll-up inference,
// dot rendering, census endpoints, and the documented error shapes.
var goldenURLs = []string{
	"/v1/cell?cell=product=shoes,brand=nike&pathlevel=0",
	"/v1/cell?cell=product=shoes,brand=nike&pathlevel=1",
	"/v1/cell?cell=&pathlevel=0",
	"/v1/cell?cell=product=sandals,brand=nike&pathlevel=0",
	"/v1/cell?cell=product=outerwear&pathlevel=1",
	"/v1/cell?cell=product=shoes,brand=nike&pathlevel=0&format=dot",
	"/v1/cell?cell=product=bogus&pathlevel=0",
	"/v1/cell?cell=product=shoes&pathlevel=9",
	"/v1/cell?cell=product=shoes&format=yaml",
	"/v1/summary",
	"/v1/exceptions?k=5",
	"/v1/cuboids",
}

// goldenV2URLs is the pinned /v2/query request set over goldenV2Cube: a
// materialized and a computed cell (with its folded list), the same cell
// with reconstruction off (no ancestor left: 404), a roll-up, an ancestor
// fallback from a redundant cell, a truncated drill-down, a slice that
// skips its only cell, a multi-cell slice, and /v1/cell over a computed and
// a redundant cell.
var goldenV2URLs = []string{
	"/v2/query?op=cell&cell=product=tennis,brand=nike&pathlevel=0",
	"/v2/query?op=cell&cell=product=shoes,brand=nike&pathlevel=0",
	"/v2/query?op=cell&cell=product=shoes,brand=nike&pathlevel=0&nocompute=1",
	"/v2/query?op=rollup&cell=product=tennis,brand=nike&dim=product&pathlevel=1",
	"/v2/query?op=cell&cell=product=clothing,brand=sports&pathlevel=1",
	"/v2/query?op=drilldown&cell=product=clothing&dim=product&pathlevel=1&max=1",
	"/v2/query?op=slice&select=brand=nike&pathlevel=0&nocompute=1",
	"/v2/query?op=slice&cell=product=shoes&select=brand=nike&pathlevel=1",
	"/v1/cell?cell=product=shoes,brand=nike&pathlevel=0",
	"/v1/cell?cell=brand=sports&pathlevel=1",
}

// goldenEntry is one recorded response.
type goldenEntry struct {
	URL         string `json:"url"`
	Status      int    `json:"status"`
	ContentType string `json:"content_type"`
	Body        string `json:"body"`
}

// loadedAtRe erases the only nondeterministic field of the census bodies;
// everything else must match exactly.
var loadedAtRe = regexp.MustCompile(`"loaded_at": "[^"]*"`)

func recordGolden(t *testing.T, h http.Handler, urls []string) []goldenEntry {
	t.Helper()
	out := make([]goldenEntry, 0, len(urls))
	for _, u := range urls {
		req := httptest.NewRequest(http.MethodGet, u, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		body := loadedAtRe.ReplaceAllString(rec.Body.String(), `"loaded_at": "<pinned>"`)
		out = append(out, goldenEntry{
			URL:         u,
			Status:      rec.Code,
			ContentType: rec.Header().Get("Content-Type"),
			Body:        body,
		})
	}
	return out
}

// checkGolden compares live responses with testdata/<name>, or rewrites it
// under -update-golden.
func checkGolden(t *testing.T, name string, got []goldenEntry) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d responses)", path, len(got))
		return
	}

	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden fixture (regenerate with -update-golden): %v", err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("parse golden fixture: %v", err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden fixture has %d responses, live suite produced %d; regenerate with -update-golden", len(want), len(got))
	}
	for i, w := range want {
		g := got[i]
		if g.URL != w.URL {
			t.Errorf("request %d: url %q, fixture has %q", i, g.URL, w.URL)
			continue
		}
		if g.Status != w.Status {
			t.Errorf("GET %s: status %d, golden %d", w.URL, g.Status, w.Status)
		}
		if g.ContentType != w.ContentType {
			t.Errorf("GET %s: content type %q, golden %q", w.URL, g.ContentType, w.ContentType)
		}
		if g.Body != w.Body {
			t.Errorf("GET %s: body diverged from golden fixture\ngot:\n%s\nwant:\n%s", w.URL, g.Body, w.Body)
		}
	}
}

func TestGoldenV1Responses(t *testing.T) {
	_, cube := buildExampleCube(t)
	s := newTestServer(t, cube, quietConfig())
	checkGolden(t, "golden_v1.json", recordGolden(t, s.Handler(), goldenURLs))
}

// goldenV2Cube is the running example at δ = 1 with redundancy marked at
// τ = 0.99 — only cells whose flowgraph equals a parent's, such as
// brand=sports (every brand is a sports brand), are redundant — and every
// path-level-0 cuboid but the finest dropped, so cells of that path level
// are computed or skipped.
func goldenV2Cube(t *testing.T) *core.Cube {
	t.Helper()
	ex := paperex.New()
	plan := transact.Plan{PathLevels: []pathdb.PathLevel{ex.BasePathLevel(), ex.TransportPathLevel()}}
	cube, err := core.Build(ex.DB, core.Config{MinCount: 1, Tau: 0.99, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	specs := cube.MaterializedSpecs()
	for _, s := range specs {
		finest := true
		for _, o := range specs {
			finest = finest && o.Item.Dominates(s.Item)
		}
		if s.PathLevel == 0 && !finest {
			cube.DropCuboid(s)
		}
	}
	return cube
}

func TestGoldenV2Responses(t *testing.T) {
	s := newTestServer(t, goldenV2Cube(t), quietConfig())
	checkGolden(t, "golden_v2.json", recordGolden(t, s.Handler(), goldenV2URLs))
}
