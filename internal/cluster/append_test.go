package cluster_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"flowcube/internal/cluster"
	"flowcube/internal/core"
	"flowcube/internal/datagen"
	"flowcube/internal/oracle"
	"flowcube/internal/paperex"
	"flowcube/internal/pathdb"
	"flowcube/internal/server"
)

// appendFixture is a cluster and a single-node reference whose snapshots
// were all loaded from the same saved cube (the deployment shape: shard
// servers boot from split snapshot files plus the replicated database).
type appendFixture struct {
	baseDB    *pathdb.DB
	batches   [][]pathdb.Record
	single    *server.Server
	shardSrvs []*server.Server
	urls      []string
	router    *cluster.Router
}

func newAppendFixture(t *testing.T, n int) *appendFixture {
	t.Helper()
	ds := datagen.MustGenerate(synthGen(400))
	total := ds.DB.Len()
	batchLen := total / 50
	split := total - 2*batchLen
	baseDB := oracle.Prefix(ds.DB, split)
	snapBytes := oracle.Save(t, oracle.Build(t, baseDB, core.Config{MinCount: 5, Epsilon: 0.1, Plan: ds.DefaultPlan(),
		MineExceptions: true, SingleStageExceptions: true}))

	loadFrom := func(data []byte) server.Loader {
		return func() (*core.Cube, server.LoadInfo, error) {
			cube, err := core.Load(bytes.NewReader(data))
			if err != nil {
				return nil, server.LoadInfo{}, err
			}
			return cube, server.LoadInfo{DB: oracle.Prefix(baseDB, baseDB.Len())}, nil
		}
	}

	fx := &appendFixture{
		baseDB: baseDB,
		batches: [][]pathdb.Record{
			ds.DB.Records[split : split+batchLen],
			ds.DB.Records[split+batchLen:],
		},
	}
	singleSrv, err := server.New(loadFrom(snapBytes), "test", quietConfig())
	if err != nil {
		t.Fatal(err)
	}
	fx.single = singleSrv

	loaded, err := core.Load(bytes.NewReader(snapBytes))
	if err != nil {
		t.Fatal(err)
	}
	parts, err := cluster.Split(loaded, n)
	if err != nil {
		t.Fatal(err)
	}
	fx.urls = make([]string, n)
	for i, part := range parts {
		filter, err := cluster.ShardFilter(i, n)
		if err != nil {
			t.Fatal(err)
		}
		cfg := quietConfig()
		cfg.PostAppend = filter
		srv, err := server.New(loadFrom(oracle.Save(t, part)), "test", cfg)
		if err != nil {
			t.Fatal(err)
		}
		fx.shardSrvs = append(fx.shardSrvs, srv)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		fx.urls[i] = ts.URL
	}

	meta, err := core.LoadMeta(bytes.NewReader(snapBytes))
	if err != nil {
		t.Fatal(err)
	}
	fx.router, err = cluster.NewRouter(meta, fx.urls, cluster.RouterConfig{
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

func post(h http.Handler, url string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	req.Header.Set("Content-Type", "text/plain; charset=utf-8")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestClusterAppendMatchesSingleNode streams two append batches through the
// router and through a single node loaded from the same snapshot, then
// checks exact equivalence twice over: the merged shard cubes save to the
// single node's exact snapshot bytes, and the query surface answers
// byte-identically. Two batches matter — the second runs against shard
// ledgers that the first append's ShardFilter prune already filtered, the
// state a long-lived cluster is always in.
func TestClusterAppendMatchesSingleNode(t *testing.T) {
	fx := newAppendFixture(t, 3)

	for round, batch := range fx.batches {
		body := []byte(oracle.Records(t, fx.baseDB.Schema, batch))
		rec := post(fx.single.Handler(), "/admin/append", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("round %d: single-node append status %d: %s", round, rec.Code, rec.Body)
		}
		rec = post(fx.router.Handler(), "/admin/append", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("round %d: cluster append status %d: %s", round, rec.Code, rec.Body)
		}
		if !strings.Contains(rec.Body.String(), `"appended"`) {
			t.Fatalf("round %d: cluster append response: %s", round, rec.Body)
		}

		parts := make([]*core.Cube, len(fx.shardSrvs))
		for i, srv := range fx.shardSrvs {
			parts[i] = srv.Snapshot().Cube
		}
		merged, err := cluster.Merge(parts)
		if err != nil {
			t.Fatalf("round %d: merge appended shards: %v", round, err)
		}
		oracle.Same(t, fmt.Sprintf("round %d: merged shard snapshots against the single node", round), fx.single.Snapshot().Cube, merged)

		sfx := &fixture{single: fx.single, router: fx.router}
		for _, u := range cellURLs(fx.single.Snapshot().Cube, 30) {
			sfx.assertSame(t, u, false)
		}
		sfx.assertSame(t, "/v1/summary", true)
		sfx.assertSame(t, "/v1/cuboids", true)
	}
}

// TestClusterAppendErrorPaths pins the router-side append guards: requests
// that fail validation are answered locally with the single node's exact
// bytes (oversized, unparseable, empty), and a partially-applied fan-out
// reports which shards diverged.
func TestClusterAppendErrorPaths(t *testing.T) {
	fx := newAppendFixture(t, 2)
	body := []byte(oracle.Records(t, fx.baseDB.Schema, fx.batches[0]))

	// Local validation failures must match the single node byte for byte.
	smallSingle, err := server.New(func() (*core.Cube, server.LoadInfo, error) {
		return fx.single.Snapshot().Cube, server.LoadInfo{DB: fx.baseDB}, nil
	}, "test", server.Config{Logger: log.New(io.Discard, "", 0), MaxAppendBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	smallRouter, err := cluster.NewRouter(fx.single.Snapshot().Cube, fx.urls, cluster.RouterConfig{
		Source: "test", Logger: log.New(io.Discard, "", 0), MaxAppendBytes: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]byte{
		body,                     // over the 16-byte cap → 413
		nil,                      // empty batch → 400
		[]byte("not a record\n"), // parse failure → 400
		[]byte("a|b\nnot|valid"), // parse failure → 400
	} {
		want := post(smallSingle.Handler(), "/admin/append", bad)
		got := post(smallRouter.Handler(), "/admin/append", bad)
		if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("append %q: router answered %d %s, single node %d %s",
				bad, got.Code, got.Body, want.Code, want.Body)
		}
		if want.Code == http.StatusOK {
			t.Fatalf("append %q unexpectedly succeeded", bad)
		}
	}

	// Fan-out failure: a router pointed at one live and one unreachable
	// shard reports divergence and names the failure, because the live shard
	// already applied the batch.
	brokenRouter, err := cluster.NewRouter(fx.single.Snapshot().Cube,
		[]string{fx.urls[0], "http://127.0.0.1:1"},
		cluster.RouterConfig{Source: "test", Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	rec := post(brokenRouter.Handler(), "/admin/append", body)
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("append with an unreachable shard: status %d: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "1 of 2 shards") || !strings.Contains(rec.Body.String(), "re-split") {
		t.Fatalf("divergence report missing detail: %s", rec.Body)
	}
}

// TestClusterAppendRejectsRedundancyMarking: re-marking needs item-lattice
// parents that may live off-shard, so clusters over tau-marked cubes are
// read-only.
func TestClusterAppendRejectsRedundancyMarking(t *testing.T) {
	ex := paperex.New()
	cube := oracle.Build(t, ex.DB, core.Config{MinCount: 2, Tau: 0.5, Plan: oracle.Views(ex)})
	rt, err := cluster.NewRouter(cube, []string{"http://127.0.0.1:1"}, cluster.RouterConfig{
		Logger: log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := post(rt.Handler(), "/admin/append", []byte("anything"))
	if rec.Code != http.StatusConflict {
		t.Fatalf("append on a tau-marked cluster: status %d, want 409: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "redundancy marking") {
		t.Fatalf("409 body does not explain the tau restriction: %s", rec.Body)
	}
}
