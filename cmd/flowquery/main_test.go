package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flowcube/internal/datagen"
)

// writeDataset writes a small dataset file for the CLI tests.
func writeDataset(t *testing.T) string {
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
	return path
}

func TestSummary(t *testing.T) {
	path := writeDataset(t)
	var out, errw bytes.Buffer
	if err := run([]string{"-in", path, "-minsup", "0.05", "-summary"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"flowcube:", "largest cuboids", "mining:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, out.String())
		}
	}
}

func TestCellQueryAndDot(t *testing.T) {
	path := writeDataset(t)
	var out, errw bytes.Buffer
	if err := run([]string{"-in", path, "-minsup", "0.05", "-cell", "d0=*,d1=*"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "flowgraph (300 paths") {
		t.Errorf("apex query output unexpected:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-in", path, "-minsup", "0.05", "-cell", "d0=*", "-dot"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "digraph") {
		t.Errorf("dot output unexpected:\n%.80s", out.String())
	}
}

func TestOLAPOps(t *testing.T) {
	path := writeDataset(t)

	// A roll-up from a level-1 cell along d0 lands on the apex cell, which
	// holds all 300 paths.
	var out, errw bytes.Buffer
	if err := run([]string{"-in", path, "-minsup", "0.05", "-cell", "d0=d0.0", "-op", "rollup", "-dim", "d0"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "flowgraph (300 paths") {
		t.Errorf("rollup output unexpected:\n%s", out.String())
	}

	// A slice over the (d0, d1) cuboid enumerates every answerable cell
	// pinning d0=d0.0, each headed by its name.
	out.Reset()
	errw.Reset()
	if err := run([]string{"-in", path, "-minsup", "0.01", "-op", "slice", "-select", "d0=d0.0", "-cell", "d1=d1.0"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if strings.Count(out.String(), "cell d0=d0.0") < 2 {
		t.Errorf("slice output lists fewer than 2 cells:\n%s\nstderr: %s", out.String(), errw.String())
	}

	// Bad op and a rollup without -dim are rejected.
	for _, args := range [][]string{
		{"-in", path, "-minsup", "0.05", "-cell", "d0=d0.0", "-op", "pivot"},
		{"-in", path, "-minsup", "0.05", "-cell", "d0=d0.0", "-op", "rollup"},
	} {
		if err := run(args, &out, &errw); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestTopCells(t *testing.T) {
	path := writeDataset(t)
	var out, errw bytes.Buffer
	if err := run([]string{"-in", path, "-minsup", "0.05", "-cell", "d0=d0.0", "-top", "3"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "top cells of cuboid") {
		t.Errorf("top output unexpected:\n%s", out.String())
	}
}

func TestSaveAndLoad(t *testing.T) {
	path := writeDataset(t)
	cubePath := filepath.Join(t.TempDir(), "cube.fcb")
	var out, errw bytes.Buffer
	if err := run([]string{"-in", path, "-minsup", "0.05", "-save", cubePath}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	built := out.String()
	out.Reset()
	errw.Reset()
	if err := run([]string{"-in", path, "-load", cubePath}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errw.String(), "loaded cube") {
		t.Errorf("load path not taken: %q", errw.String())
	}
	// Cell counts agree between built and loaded summaries (first line).
	firstLine := func(s string) string { return strings.SplitN(s, "\n", 2)[0] }
	if firstLine(built) != firstLine(out.String()) {
		t.Errorf("summaries differ:\n%s\n%s", firstLine(built), firstLine(out.String()))
	}
}

func TestErrors(t *testing.T) {
	path := writeDataset(t)
	cases := [][]string{
		{},                                // missing -in
		{"-in", "/nonexistent"},           // unreadable dataset
		{"-in", path, "-cell", "bogus"},   // malformed cell
		{"-in", path, "-cell", "nodim=x"}, // unknown dimension
		{"-in", path, "-cell", "d0=nosuchconcept"}, // unknown concept
		{"-in", path, "-load", "/nonexistent"},     // unreadable cube
	}
	for _, args := range cases {
		var out, errw bytes.Buffer
		if err := run(args, &out, &errw); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
