package cluster_test

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"flowcube/internal/cluster"
	"flowcube/internal/core"
	"flowcube/internal/oracle"
)

// TestRouterRequestTimeout: every route the router bounds answers 503
// {"error": "request timed out"} when its deadline passes while its shard
// calls wait, not the 502 of a failed shard. The shards hold every request
// until the caller gives up, so only the deadline ends the wait.
func TestRouterRequestTimeout(t *testing.T) {
	_, cube := synthCube(t)
	hang := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { <-r.Context().Done() })
	var urls []string
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(hang)
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	meta, err := core.LoadMeta(bytes.NewReader(oracle.Save(t, cube)))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := cluster.NewRouter(meta, urls, cluster.RouterConfig{
		RequestTimeout: 20 * time.Millisecond,
		Logger:         log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	cell := cellURLs(cube, 1)[0]
	for _, url := range []string{
		cell,
		strings.Replace(cell, "/v1/cell?", "/v2/query?op=cell&", 1),
		"/v1/summary",
		"/v1/cuboids",
		"/v1/exceptions",
	} {
		rec := get(rt.Handler(), url)
		var body map[string]string
		if rec.Code != http.StatusServiceUnavailable || json.Unmarshal(rec.Body.Bytes(), &body) != nil || body["error"] != "request timed out" {
			t.Errorf("%s: %d %s, want 503 request timed out", url, rec.Code, rec.Body)
		}
	}
}
