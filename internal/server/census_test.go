package server

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/oracle"
	"flowcube/internal/paperex"
)

var censusURLs = []string{"/v1/summary", "/v1/cuboids"}

// censusCube builds the small two-dimensional cube the census tests save.
func censusCube(t *testing.T) *core.Cube {
	ds := oracle.Dataset(5, 60)
	return oracle.Build(t, ds.DB, core.Config{MinCount: 4, Plan: ds.DefaultPlan()})
}

// lazyServer serves the snapshot at path lazily with a one-byte cell cache,
// so each section directory a walk builds is evicted by the next one: a
// repeated walk shows as cache misses.
func lazyServer(t *testing.T, path string) *Server {
	return newTestServer2(t, FileLoader(path, BuildOptions{Lazy: true, LazyCacheBytes: 1}), quietConfig())
}

func lazyStats(t *testing.T, s *Server) core.LazyStats {
	t.Helper()
	st, ok := s.Snapshot().Cube.LazyStats()
	if !ok {
		t.Fatal("snapshot is not lazily loaded")
	}
	return st
}

// TestCensusBuiltOncePerSnapshot: the first census request walks the lazy
// cube's section directories; later /v1/summary and /v1/cuboids requests
// touch no section and answer the same bytes.
func TestCensusBuiltOncePerSnapshot(t *testing.T) {
	s := lazyServer(t, oracle.File(t, oracle.Save(t, censusCube(t))))
	for _, url := range censusURLs {
		first, _ := get(t, s.Handler(), url)
		before := lazyStats(t, s)
		if before.CacheMisses == 0 {
			t.Fatalf("%s: the census walk missed no section directory", url)
		}
		second, _ := get(t, s.Handler(), url)
		after := lazyStats(t, s)
		if first.Code != http.StatusOK || second.Code != http.StatusOK {
			t.Fatalf("%s: status %d then %d", url, first.Code, second.Code)
		}
		if first.Body.String() != second.Body.String() {
			t.Errorf("%s: second body differs\nfirst  %s\nsecond %s", url, first.Body, second.Body)
		}
		if after.CacheMisses != before.CacheMisses || after.CacheHits != before.CacheHits {
			t.Errorf("%s: second request touched the cell cache: %d/%d misses/hits before, %d/%d after",
				url, before.CacheMisses, before.CacheHits, after.CacheMisses, after.CacheHits)
		}
	}
}

// TestCensusConcurrentFirstRequests: eight concurrent first census
// requests walk the cube once between them, exactly as one request does on
// a fresh server, and every body of a route is the same.
func TestCensusConcurrentFirstRequests(t *testing.T) {
	path := oracle.File(t, oracle.Save(t, censusCube(t)))
	one := lazyServer(t, path)
	get(t, one.Handler(), censusURLs[0])
	want := lazyStats(t, one)

	s := lazyServer(t, path)
	recs := make([]*httptest.ResponseRecorder, 8)
	var wg sync.WaitGroup
	for i := range recs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i] = httptest.NewRecorder()
			s.Handler().ServeHTTP(recs[i], httptest.NewRequest(http.MethodGet, censusURLs[i%2], nil))
		}(i)
	}
	wg.Wait()
	if got := lazyStats(t, s); got.CacheMisses != want.CacheMisses || got.CacheHits != want.CacheHits {
		t.Errorf("eight first requests: %d/%d cache misses/hits, one request: %d/%d",
			got.CacheMisses, got.CacheHits, want.CacheMisses, want.CacheHits)
	}
	for i, rec := range recs {
		if rec.Code != http.StatusOK || rec.Body.String() != recs[i%2].Body.String() {
			t.Errorf("request %d (%s): status %d, body differs from request %d's", i, censusURLs[i%2], rec.Code, i%2)
		}
	}
}

// TestCensusFollowsSnapshot: an append and a reload each publish a snapshot
// whose census the census routes then serve.
func TestCensusFollowsSnapshot(t *testing.T) {
	ex := paperex.New()
	cfg := core.Config{MinCount: 2, Plan: oracle.Views(ex), DeltaLedger: true}
	split := ex.DB.Len() - 3
	n := split // the loader's prefix; a reload after raising it sees every record
	s := newTestServer2(t, func() (*core.Cube, LoadInfo, error) { return prefixLoader(ex.DB, n, cfg)() }, quietConfig())

	served := func(step string) string {
		t.Helper()
		c := renderCuboids(s.Snapshot())
		for _, url := range censusURLs {
			rec, _ := get(t, s.Handler(), url)
			want := httptest.NewRecorder()
			if url == "/v1/summary" {
				WriteJSON(want, http.StatusOK, c.Summary())
			} else {
				WriteJSON(want, http.StatusOK, c)
			}
			if rec.Code != http.StatusOK || rec.Body.String() != want.Body.String() {
				t.Fatalf("%s: %s answered %d\n%s\nwant the snapshot's census\n%s", step, url, rec.Code, rec.Body, want.Body)
			}
		}
		rec, _ := get(t, s.Handler(), "/v1/cuboids")
		return rec.Body.String()
	}

	initial := served("initial")
	if rec, _ := postBody(t, s.Handler(), "/admin/append", oracle.Records(t, ex.DB.Schema, ex.DB.Records[split:split+2])); rec.Code != http.StatusOK {
		t.Fatalf("append: status %d: %s", rec.Code, rec.Body)
	}
	appended := served("after append")
	if appended == initial {
		t.Error("the append left the census unchanged; the test needs one that moves it")
	}
	n = ex.DB.Len()
	if rec, _ := postBody(t, s.Handler(), "/admin/reload", ""); rec.Code != http.StatusOK {
		t.Fatalf("reload: status %d: %s", rec.Code, rec.Body)
	}
	if served("after reload") == appended {
		t.Error("the reload left the census unchanged; the test needs one that moves it")
	}
}

// TestCensusCorruptSectionAnswers500: a section whose directory walk fails
// answers 500 on every census request, not only the one that built the
// census.
func TestCensusCorruptSectionAnswers500(t *testing.T) {
	cube := censusCube(t)
	idx := -1
	for i, spec := range cube.MaterializedSpecs() { // ascending key order: the file's
		if len(cube.Cuboid(spec).Cells) > 0 {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatal("fixture has no cells")
	}
	snap := oracle.RewriteSection(t, oracle.Save(t, cube), oracle.SecCuboid, idx, func(p []byte) []byte { return append(p, 0x7f) })
	s := newTestServer2(t, FileLoader(oracle.File(t, snap), BuildOptions{Lazy: true}), quietConfig())
	for i := 0; i < 2; i++ {
		for _, url := range censusURLs {
			if rec, _ := get(t, s.Handler(), url); rec.Code != http.StatusInternalServerError {
				t.Errorf("request %d to %s: status %d, want 500: %s", i, url, rec.Code, rec.Body)
			}
		}
	}
}
