package server

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// Serving microbenchmarks: the same /v1/cell query answered from the LRU
// cache versus recomputed every time (cache capacity < 0 disables storage).
//
//	go test ./internal/server -bench BenchmarkCell -run '^$'

const benchQuery = "/v1/cell?cell=product=shoes,brand=nike&pathlevel=0"

func benchServer(tb testing.TB, cacheSize int) *Server {
	tb.Helper()
	_, cube := buildExampleCube(tb)
	cfg := quietConfig()
	cfg.CacheSize = cacheSize
	return newTestServer(tb, cube, cfg)
}

func serveOnce(tb testing.TB, h http.Handler, url string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	if rec.Code != http.StatusOK {
		tb.Fatalf("GET %s: %d", url, rec.Code)
	}
}

func BenchmarkCellCached(b *testing.B) {
	s := benchServer(b, DefaultCacheSize)
	h := s.Handler()
	serveOnce(b, h, benchQuery) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveOnce(b, h, benchQuery)
	}
}

func BenchmarkCellUncached(b *testing.B) {
	s := benchServer(b, -1)
	h := s.Handler()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveOnce(b, h, benchQuery)
	}
}

func BenchmarkCellCachedParallel(b *testing.B) {
	s := benchServer(b, DefaultCacheSize)
	h := s.Handler()
	serveOnce(b, h, benchQuery)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			serveOnce(b, h, benchQuery)
		}
	})
}
