package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/oracle"
)

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
	ds := oracle.Small()
	path := oracle.DatasetFile(t, ds)
	base, shutdown := oracle.Serve(context.Background(), t, run, "-in", path, "-minsup", "0.05", "-quiet")

	status, health := getJSON(t, base+"/healthz")
	if status != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz: %d %v", status, health)
	}

	// The served answers must match a cube built directly with the same
	// parameters (the flowquery path).
	cube := oracle.Build(t, ds.DB, core.Config{MinSupport: 0.05, Plan: ds.DefaultPlan()})
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
	ds := oracle.Small()
	cube := oracle.Build(t, ds.DB, core.Config{MinSupport: 0.05, Plan: ds.DefaultPlan()})
	saved := oracle.File(t, oracle.Save(t, cube))

	base, shutdown := oracle.Serve(context.Background(), t, run, "-in", saved, "-quiet")
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
