package main

import (
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"flowcube/internal/cluster"
	"flowcube/internal/core"
	"flowcube/internal/oracle"
	"flowcube/internal/server"
)

// newCluster saves a small cube, splits it across two in-process shard
// servers, and returns the snapshot path plus the shard URLs.
func newCluster(t *testing.T) (string, []string) {
	t.Helper()
	ds := oracle.Small()
	cube := oracle.Build(t, ds.DB, core.Config{MinCount: 3, Plan: ds.DefaultPlan()})
	path := oracle.File(t, oracle.Save(t, cube))

	parts, err := cluster.Split(cube, 2)
	if err != nil {
		t.Fatal(err)
	}
	urls := make([]string, len(parts))
	for i, part := range parts {
		srv, err := server.New(func() (*core.Cube, server.LoadInfo, error) {
			return part, server.LoadInfo{}, nil
		}, "test", server.Config{Logger: log.New(io.Discard, "", 0)})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return path, urls
}

func TestRouterEndToEnd(t *testing.T) {
	metaPath, urls := newCluster(t)
	base, shutdown := oracle.Serve(context.Background(), t, run,
		"-meta", metaPath,
		"-shards", strings.Join(urls, ","),
		"-source", "e2e",
		"-quiet")

	resp, err := http.Get(base + "/v1/summary")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("summary status %d: %s", resp.StatusCode, body)
	}
	var sum map[string]any
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatalf("bad summary JSON: %v\n%s", err, body)
	}
	if sum["source"] != "e2e" {
		t.Errorf("summary source = %v, want e2e", sum["source"])
	}
	if sum["cells"].(float64) <= 0 {
		t.Errorf("summary cells = %v, want > 0", sum["cells"])
	}

	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d, want 200", resp.StatusCode)
	}

	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestRouterValidationFailure(t *testing.T) {
	metaPath, _ := newCluster(t)
	// A shard that answers the census scatter with garbage must be rejected
	// at startup, before the router ever listens.
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "not a flowcube shard", http.StatusNotFound)
	}))
	defer bad.Close()
	err := run(context.Background(),
		[]string{"-meta", metaPath, "-shards", bad.URL, "-addr", "127.0.0.1:0", "-quiet"},
		io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "shard") {
		t.Fatalf("run with a non-shard backend = %v, want validation error", err)
	}
}

func TestRouterFlagErrors(t *testing.T) {
	metaPath, _ := newCluster(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{}, "-meta is required"},
		{[]string{"-meta", metaPath}, "-shards is required"},
		{[]string{"-meta", filepath.Join(t.TempDir(), "missing.fcb"), "-shards", "http://127.0.0.1:1"}, "no such file"},
	} {
		err := run(context.Background(), tc.args, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want error containing %q", tc.args, err, tc.want)
		}
	}
}
