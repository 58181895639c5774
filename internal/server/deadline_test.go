package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"flowcube/internal/oracle"
)

// TestExpiredDeadlineAnswers503: a request whose deadline has passed before
// its handler writes answers WriteError's 503 on every route WithTimeout
// bounds, whether its work watches the context (a cell compute, through
// core.Answer) or checks it before writing (the census and exception
// walks). The parent context is already expired, so the derived deadline
// is too, however the scheduler runs things.
func TestExpiredDeadlineAnswers503(t *testing.T) {
	_, cube := oracle.Table1(t, oracle.Views, oracle.Mined(0))
	s := newTestServer(t, cube, quietConfig())
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, url := range []string{
		"/v1/cell?cell=product=shoes",
		"/v2/query?op=rollup&cell=product=shoes,brand=nike&dim=brand",
		"/v1/summary",
		"/v1/cuboids",
		"/v1/exceptions",
	} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil).WithContext(ctx))
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("%s: status %d, want 503: %s", url, rec.Code, rec.Body)
		}
		if got, want := rec.Body.String(), "{\n  \"error\": \"request timed out\"\n}\n"; got != want {
			t.Errorf("%s: body %q, want %q", url, got, want)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q, want application/json", url, ct)
		}
	}
	// The failed compute stored nothing: an in-time request computes.
	if rec, _ := get(t, s.Handler(), "/v1/cell?cell=product=shoes"); rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "miss" {
		t.Errorf("in-time request after the timeout: status %d, X-Cache %q", rec.Code, rec.Header().Get("X-Cache"))
	}
}

// TestCachedBodyCarriesLength: an in-time cell request answers with the
// Content-Length of its body, computed (miss) and replayed (hit) alike.
func TestCachedBodyCarriesLength(t *testing.T) {
	_, cube := oracle.Table1(t, oracle.Views, oracle.Mined(0))
	s := newTestServer(t, cube, quietConfig())
	for _, want := range []string{"miss", "hit"} {
		for _, url := range []string{"/v1/cell?cell=product=shoes", "/v2/query?op=cell&cell=product=shoes&pathlevel=1"} {
			rec, _ := get(t, s.Handler(), url)
			if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != want {
				t.Fatalf("%s: status %d, X-Cache %q, want 200 %s", url, rec.Code, rec.Header().Get("X-Cache"), want)
			}
			if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
				t.Errorf("%s (%s): Content-Length %q, body %d bytes", url, want, cl, rec.Body.Len())
			}
		}
	}
}

// TestUnmatchedPathsShareOneRoute: requests no route serves are counted
// under one key, so clients cannot grow /metrics without bound; routed
// requests keep their pattern as key.
func TestUnmatchedPathsShareOneRoute(t *testing.T) {
	_, cube := oracle.Table1(t, oracle.Views, oracle.Mined(0))
	s := newTestServer(t, cube, quietConfig())
	for i := 0; i < 1000; i++ {
		if rec, _ := get(t, s.Handler(), fmt.Sprintf("/no/such/path/%d", i)); rec.Code != http.StatusNotFound {
			t.Fatalf("unknown path: status %d, want 404", rec.Code)
		}
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/cell", nil)
	s.Handler().ServeHTTP(httptest.NewRecorder(), req) // 405: rejected by the mux too
	get(t, s.Handler(), "/v1/cell?cell=product=shoes")

	routes := s.Metrics().Routes
	if len(routes) != 2 {
		t.Errorf("routes %v, want GET /v1/cell and %s only", keys(routes), unmatchedRoute)
	}
	if n := routes[unmatchedRoute].Count; n != 1001 {
		t.Errorf("%s count %d, want 1001", unmatchedRoute, n)
	}
	if n := routes["GET /v1/cell"].Count; n != 1 {
		t.Errorf("GET /v1/cell count %d, want 1", n)
	}
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestHTTPServerClosesIdleConnections: the listening server bounds how long
// a keep-alive connection may idle, and leaves each request's own deadline
// to WithTimeout.
func TestHTTPServerClosesIdleConnections(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.IdleTimeout < time.Minute {
		t.Errorf("IdleTimeout %s, want at least a minute", srv.IdleTimeout)
	}
	if srv.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout %s, want a bound", srv.ReadHeaderTimeout)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Errorf("ReadTimeout %s, WriteTimeout %s: they would cut into a request's own deadline", srv.ReadTimeout, srv.WriteTimeout)
	}
}
