package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/datagen"
	"flowcube/internal/hierarchy"
	"flowcube/internal/oracle"
)

// Serving microbenchmarks: the same /v1/cell query answered from the LRU
// cache versus recomputed every time (cache capacity < 0 disables storage),
// and the render step alone.
//
//	go test ./internal/server -bench BenchmarkCell -run '^$'

const benchQuery = "/v1/cell?cell=product=shoes,brand=nike&pathlevel=0"

func benchServer(tb testing.TB, cacheSize int) *Server {
	tb.Helper()
	_, cube := oracle.Table1(tb, oracle.Views, oracle.Mined(0))
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

// BenchmarkCommit times whole appends through Server.Handler() on the
// benchmark's ingest_mixed shape: three dimensions, 2000 base paths, δ = 20,
// two workers, ten-record batches. Every iteration commits on the
// latest generation, as the server does, after one untimed commit that
// derives the sub-δ ledger, and there is no WAL, so fsync does not enter
// the numbers. It runs with exceptions off (flowserve's default)
// and on, and reports what a commit copied out of the serving cube.
//
//	go test ./internal/server -run '^$' -bench Commit -benchmem
func BenchmarkCommit(b *testing.B) {
	const base, batchLen, batches = 2000, 10, 200
	gen := datagen.Default()
	gen.NumDims, gen.NumPaths = 3, base+batchLen*batches
	ds := datagen.MustGenerate(gen)
	bodies := make([]string, batches)
	for i := range bodies {
		lo := base + i*batchLen
		bodies[i] = oracle.Records(b, ds.DB.Schema, ds.DB.Records[lo:lo+batchLen])
	}
	for _, exceptions := range []bool{false, true} {
		b.Run(fmt.Sprintf("exceptions=%t", exceptions), func(b *testing.B) {
			s, err := New(prefixLoader(ds.DB, base, core.Config{
				MinCount: 20, Epsilon: 0.1, Plan: ds.DefaultPlan(),
				MineExceptions: exceptions, Workers: 2,
			}), "bench", quietConfig())
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			h := s.Handler()
			// One commit before the timer derives the sub-δ ledger, as a
			// server's first append does: the iterations time the steady state.
			warm := httptest.NewRecorder()
			h.ServeHTTP(warm, httptest.NewRequest(http.MethodPost, "/admin/append", strings.NewReader(bodies[batches-1])))
			if warm.Code != http.StatusOK {
				b.Fatalf("warm-up append: %d %s", warm.Code, warm.Body.String())
			}
			var cells float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/append", strings.NewReader(bodies[i%batches])))
				b.StopTimer()
				var resp struct {
					Stats struct {
						CellsCopied int `json:"cells_copied"`
					} `json:"stats"`
				}
				if rec.Code != http.StatusOK {
					b.Fatalf("append: %d %s", rec.Code, rec.Body.String())
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					b.Fatal(err)
				}
				cells += float64(resp.Stats.CellsCopied)
				b.StartTimer()
			}
			b.ReportMetric(cells/float64(b.N), "cells_copied")
		})
	}
}

// respondSink keeps BenchmarkRespond's bodies live.
var respondSink []byte

// BenchmarkRespond times Request.Respond alone — rendering an answer the
// planner already produced into the /v2/query body — over a generated cube
// whose bodies are tens of KB: a materialized cell, a cell of a dropped
// cuboid computed from its descendants, and a slice capped at three cells.
//
//	go test ./internal/server -run '^$' -bench Respond -benchmem
func BenchmarkRespond(b *testing.B) {
	cfg := datagen.Default()
	cfg.NumPaths, cfg.NumDims = 2000, 2
	ds := datagen.MustGenerate(cfg)
	cube := oracle.Build(b, ds.DB, core.Config{MinCount: 20, Plan: ds.DefaultPlan()})
	first := func(spec core.CuboidSpec) []hierarchy.NodeID { return cube.Cuboid(spec).SortedCells()[0].Values }
	fine := core.CuboidSpec{Item: core.ItemLevel{2, 1}, PathLevel: 0}
	dropped := core.CuboidSpec{Item: core.ItemLevel{1, 0}, PathLevel: 3}
	cube.DropCuboid(dropped)
	for _, bc := range []struct {
		name string
		q    core.Query
	}{
		{"materialized", core.Query{Spec: fine, Values: first(fine)}},
		{"computed", core.Query{Spec: dropped, Values: first(core.CuboidSpec{Item: dropped.Item})}},
		{"multi", core.Query{Op: core.OpSlice, Spec: core.CuboidSpec{Item: fine.Item, PathLevel: 3},
			Select: []core.Selector{{Dim: 1, Value: first(fine)[1]}}, MaxCells: 3}},
	} {
		a, err := cube.Answer(context.Background(), bc.q)
		if err != nil {
			b.Fatal(err)
		}
		rq := Request{Query: bc.q}
		b.Run(bc.name, func(b *testing.B) {
			body, _, err := rq.Respond(cube, a, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if respondSink, _, err = rq.Respond(cube, a, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(body)), "body_B")
			b.ReportMetric(float64(len(a.Cells)), "cells")
		})
	}
}
