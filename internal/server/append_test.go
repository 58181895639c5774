package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/paperex"
	"flowcube/internal/pathdb"
	"flowcube/internal/transact"
)

func postBody(t testing.TB, h http.Handler, url, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, url, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var parsed map[string]any
	if strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
		if err := json.Unmarshal(rec.Body.Bytes(), &parsed); err != nil {
			t.Fatalf("POST %s: bad JSON: %v\n%s", url, err, rec.Body.String())
		}
	}
	return rec, parsed
}

// TestAdminAppend drives the streaming-append flow: serve a cube built over
// a prefix of the running example, POST the remaining records, and check
// the swapped snapshot matches a full build over everything — byte-exact
// under Save.
func TestAdminAppend(t *testing.T) {
	ex := paperex.New()
	plan := transact.Plan{PathLevels: []pathdb.PathLevel{ex.BasePathLevel(), ex.TransportPathLevel()}}
	cfg := core.Config{MinCount: 2, Plan: plan, DeltaLedger: true}

	full, err := core.Build(ex.DB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := full.Save(&want); err != nil {
		t.Fatal(err)
	}

	split := ex.DB.Len() - 3
	prefix := &pathdb.DB{Schema: ex.DB.Schema, Records: append([]pathdb.Record(nil), ex.DB.Records[:split]...)}
	cube, err := core.Build(prefix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(func() (*core.Cube, LoadInfo, error) {
		return cube, LoadInfo{DB: prefix}, nil
	}, "test", quietConfig())
	if err != nil {
		t.Fatal(err)
	}

	var batch bytes.Buffer
	batchDB := &pathdb.DB{Schema: ex.DB.Schema, Records: ex.DB.Records[split:]}
	if _, err := batchDB.WriteTo(&batch); err != nil {
		t.Fatal(err)
	}
	rec, body := postBody(t, s.Handler(), "/admin/append", batch.String())
	if rec.Code != http.StatusOK {
		t.Fatalf("append: status %d: %s", rec.Code, rec.Body.String())
	}
	if body["status"] != "appended" || body["records"] != float64(3) {
		t.Errorf("append response = %v", body)
	}

	snap := s.Snapshot()
	if snap.Cube == cube {
		t.Fatal("append mutated the serving snapshot in place instead of swapping")
	}
	if snap.DB.Len() != ex.DB.Len() {
		t.Errorf("swapped snapshot DB has %d records, want %d", snap.DB.Len(), ex.DB.Len())
	}
	var got bytes.Buffer
	if err := snap.Cube.Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("appended snapshot differs from a full build over the union database")
	}

	m := s.Metrics()
	if m.Appends.Count != 1 {
		t.Errorf("appends.count = %d, want 1", m.Appends.Count)
	}
	if m.Appends.LastDeltaMs <= 0 {
		t.Errorf("appends.last_delta_ms = %g, want > 0", m.Appends.LastDeltaMs)
	}
	if m.Appends.LastCellsTouched <= 0 {
		t.Errorf("appends.last_cells_touched = %d, want > 0", m.Appends.LastCellsTouched)
	}
}

func TestAdminAppendErrors(t *testing.T) {
	ex := paperex.New()
	plan := transact.Plan{PathLevels: []pathdb.PathLevel{ex.BasePathLevel()}}

	// A snapshot loaded without a path database cannot append.
	_, cubeOnly := buildExampleCube(t)
	s := newTestServer(t, cubeOnly, quietConfig())
	rec, _ := postBody(t, s.Handler(), "/admin/append", "tennis,nike|f:1 s:2\n")
	if rec.Code != http.StatusConflict {
		t.Errorf("append without DB: status %d, want 409", rec.Code)
	}

	// A database-backed snapshot rejects malformed and empty bodies.
	cube, err := core.Build(ex.DB, core.Config{MinCount: 2, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	s, err = New(func() (*core.Cube, LoadInfo, error) {
		return cube, LoadInfo{DB: ex.DB}, nil
	}, "test", quietConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rec, _ := postBody(t, s.Handler(), "/admin/append", "not a record line\n"); rec.Code != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", rec.Code)
	}
	if rec, _ := postBody(t, s.Handler(), "/admin/append", "# comments only\n"); rec.Code != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", rec.Code)
	}
	// Records name leaf concepts: an interior one ("shoes" is tennis's
	// parent) is the client's error, not a cell at the wrong level.
	if rec, _ := postBody(t, s.Handler(), "/admin/append", "shoes,nike|f:1 s:2\n"); rec.Code != http.StatusBadRequest {
		t.Errorf("interior dimension value: status %d, want 400", rec.Code)
	}

	// A cube built with a fractional threshold is not delta-maintainable.
	fractional, err := core.Build(ex.DB, core.Config{MinSupport: 0.25, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	s, err = New(func() (*core.Cube, LoadInfo, error) {
		return fractional, LoadInfo{DB: ex.DB}, nil
	}, "test", quietConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rec, _ := postBody(t, s.Handler(), "/admin/append", "tennis,nike|f:1 s:2\n"); rec.Code != http.StatusConflict {
		t.Errorf("fractional cube: status %d, want 409", rec.Code)
	}
}

// TestAdminAppendSerialized guards the no-lost-updates contract of the
// group committer: concurrent appends coalesce into commit groups on a
// single-writer loop instead of racing clone-patch-swap, so every batch
// lands exactly once however the groups form. Fire the remaining records as
// concurrent single-record batches and require every one to land.
func TestAdminAppendSerialized(t *testing.T) {
	ex := paperex.New()
	plan := transact.Plan{PathLevels: []pathdb.PathLevel{ex.BasePathLevel(), ex.TransportPathLevel()}}
	cfg := core.Config{MinCount: 2, Plan: plan, DeltaLedger: true}

	split := ex.DB.Len() - 3
	prefix := &pathdb.DB{Schema: ex.DB.Schema, Records: append([]pathdb.Record(nil), ex.DB.Records[:split]...)}
	cube, err := core.Build(prefix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(func() (*core.Cube, LoadInfo, error) {
		return cube, LoadInfo{DB: prefix}, nil
	}, "test", quietConfig())
	if err != nil {
		t.Fatal(err)
	}

	rest := ex.DB.Records[split:]
	var wg sync.WaitGroup
	errs := make([]string, len(rest))
	for i, r := range rest {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var batch bytes.Buffer
			one := &pathdb.DB{Schema: ex.DB.Schema, Records: []pathdb.Record{r}}
			if _, err := one.WriteTo(&batch); err != nil {
				errs[i] = err.Error()
				return
			}
			rec, _ := postBody(t, s.Handler(), "/admin/append", batch.String())
			if rec.Code != http.StatusOK {
				errs[i] = rec.Body.String()
			}
		}()
	}
	wg.Wait()
	for i, e := range errs {
		if e != "" {
			t.Fatalf("concurrent append %d failed: %s", i, e)
		}
	}

	snap := s.Snapshot()
	if snap.DB.Len() != ex.DB.Len() {
		t.Fatalf("after %d concurrent appends, snapshot DB has %d records, want %d (a batch was lost)",
			len(rest), snap.DB.Len(), ex.DB.Len())
	}
	m := s.Metrics()
	// Appends.Count counts folds (one per commit group), so coalescing can
	// make it smaller than the request count — never zero, never larger.
	if m.Appends.Count < 1 || m.Appends.Count > int64(len(rest)) {
		t.Errorf("appends.count = %d, want 1..%d", m.Appends.Count, len(rest))
	}
	if m.Ingest.GroupedRequests != int64(len(rest)) {
		t.Errorf("ingest.grouped_requests = %d, want %d", m.Ingest.GroupedRequests, len(rest))
	}
}
