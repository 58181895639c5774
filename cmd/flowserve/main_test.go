package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"flowcube/internal/core"
	"flowcube/internal/datagen"
)

// writeDataset writes a small flowgen dataset for the e2e tests.
func writeDataset(t *testing.T) (string, *datagen.Dataset) {
	t.Helper()
	cfg := datagen.Default()
	cfg.NumPaths = 300
	cfg.NumDims = 2
	cfg.NumSequences = 10
	cfg.SeqLenMin, cfg.SeqLenMax = 3, 4
	cfg.DurationDomain = 3
	ds := datagen.MustGenerate(cfg)
	path := filepath.Join(t.TempDir(), "paths.fdb")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, ds
}

// lockedBuffer lets the test read stderr while run() is still writing logs.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenRE = regexp.MustCompile(`listening on (http://[^\s]+)`)

// startServer runs flowserve against args on an ephemeral port and returns
// its base URL plus a shutdown function that cancels the serve context (the
// same path SIGINT/SIGTERM take through signal.NotifyContext) and returns
// run's error.
func startServer(t *testing.T, args ...string) (string, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var stderr lockedBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, append(args, "-addr", "127.0.0.1:0"), io.Discard, &stderr)
	}()

	deadline := time.Now().Add(30 * time.Second)
	for {
		if m := listenRE.FindStringSubmatch(stderr.String()); m != nil {
			return m[1], func() error {
				cancel()
				select {
				case err := <-done:
					return err
				case <-time.After(10 * time.Second):
					t.Fatal("flowserve did not shut down")
					return nil
				}
			}
		}
		select {
		case err := <-done:
			cancel()
			t.Fatalf("flowserve exited early: %v\nstderr: %s", err, stderr.String())
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("flowserve never listened\nstderr: %s", stderr.String())
		}
	}
}

func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatalf("GET %s: bad JSON %v\n%s", url, err, body)
		}
	}
	return resp.StatusCode, m
}

func TestFlagValidation(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run(context.Background(), nil, &out, &errw); err == nil {
		t.Fatal("run without -in succeeded")
	}
	if err := run(context.Background(), []string{"-in", "/does/not/exist"}, &out, &errw); err == nil {
		t.Fatal("run with a missing input succeeded")
	}
}

// TestEndToEnd drives the full acceptance flow: build from a generated
// .fdb, answer exact and rolled-up cell queries matching the library's own
// Answer output, reload, and shut down gracefully.
func TestEndToEnd(t *testing.T) {
	path, ds := writeDataset(t)
	base, shutdown := startServer(t, "-in", path, "-minsup", "0.05", "-quiet")

	status, health := getJSON(t, base+"/healthz")
	if status != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz: %d %v", status, health)
	}

	// The served answers must match a cube built directly with the same
	// parameters (the flowquery path).
	cube, err := core.Build(ds.DB, core.Config{MinSupport: 0.05, Plan: ds.DefaultPlan()})
	if err != nil {
		t.Fatal(err)
	}
	if int(health["cells"].(float64)) != cube.NumCells() {
		t.Errorf("served cells = %v, reference build has %d", health["cells"], cube.NumCells())
	}

	// Exact apex query as DOT: byte-identical to the library's rendering.
	spec := "d0=*,d1=*"
	resp, err := http.Get(base + "/v1/cell?cell=" + spec + "&format=dot")
	if err != nil {
		t.Fatal(err)
	}
	dot, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	il, values, err := core.ParseCellSpec(ds.Schema, spec)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := cube.Answer(context.Background(), core.Query{Spec: core.CuboidSpec{Item: il, PathLevel: 0}, Values: values})
	if err != nil || !ref.Cells[0].Exact {
		t.Fatalf("reference apex query failed: %v", err)
	}
	if string(dot) != ref.Cells[0].Graph.DOT(spec) {
		t.Errorf("served DOT differs from reference build")
	}

	// A concrete leaf-level cell: JSON answer, exact or rolled up, with the
	// graph paths matching the source count.
	leaf := ds.Schema.Dims[0].Leaves()[0]
	cellSpec := fmt.Sprintf("d0=%s", ds.Schema.Dims[0].Name(leaf))
	status, body := getJSON(t, base+"/v1/cell?cell="+cellSpec)
	if status != http.StatusOK {
		t.Fatalf("cell query: %d %v", status, body)
	}
	src := body["source"].(map[string]any)
	graph := body["graph"].(map[string]any)
	if src["count"].(float64) != graph["paths"].(float64) {
		t.Errorf("source count %v != graph paths %v", src["count"], graph["paths"])
	}

	// Hot reload while queries continue.
	var wg sync.WaitGroup
	stopQueries := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stopQueries:
				return
			default:
			}
			resp, err := http.Get(base + "/v1/cell?cell=" + spec)
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	reload, err := http.Post(base+"/admin/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, reload.Body)
	reload.Body.Close()
	if reload.StatusCode != http.StatusOK {
		t.Errorf("reload: status %d", reload.StatusCode)
	}
	close(stopQueries)
	wg.Wait()

	status, metricsBody := getJSON(t, base+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: %d", status)
	}
	if metricsBody["reloads"].(float64) != 1 {
		t.Errorf("reloads = %v, want 1", metricsBody["reloads"])
	}

	if err := shutdown(); err != nil {
		t.Errorf("graceful shutdown returned %v", err)
	}
}

// TestServeSavedCube exercises the flowquery -save → flowserve flow: the
// snapshot file format is sniffed, not taken from the extension.
func TestServeSavedCube(t *testing.T) {
	_, ds := writeDataset(t)
	cube, err := core.Build(ds.DB, core.Config{MinSupport: 0.05, Plan: ds.DefaultPlan()})
	if err != nil {
		t.Fatal(err)
	}
	saved := filepath.Join(t.TempDir(), "cube.fcb")
	f, err := os.Create(saved)
	if err != nil {
		t.Fatal(err)
	}
	if err := cube.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	base, shutdown := startServer(t, "-in", saved, "-quiet")
	status, summary := getJSON(t, base+"/v1/summary")
	if status != http.StatusOK {
		t.Fatalf("summary: %d", status)
	}
	if int(summary["cells"].(float64)) != cube.NumCells() {
		t.Errorf("served cells = %v, saved cube has %d", summary["cells"], cube.NumCells())
	}
	if err := shutdown(); err != nil {
		t.Errorf("graceful shutdown returned %v", err)
	}
}
