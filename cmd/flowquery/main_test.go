package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/datagen"
	"flowcube/internal/oracle"
)

func TestSummary(t *testing.T) {
	path := oracle.DatasetFile(t, oracle.Small())
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
	path := oracle.DatasetFile(t, oracle.Small())
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
	path := oracle.DatasetFile(t, oracle.Small())

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
	path := oracle.DatasetFile(t, oracle.Small())
	var out, errw bytes.Buffer
	if err := run([]string{"-in", path, "-minsup", "0.05", "-cell", "d0=d0.0", "-top", "3"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "top cells of cuboid") {
		t.Errorf("top output unexpected:\n%s", out.String())
	}
}

func TestSaveAndLoad(t *testing.T) {
	path := oracle.DatasetFile(t, oracle.Small())
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
	path := oracle.DatasetFile(t, oracle.Small())
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

// saveSmall builds the Small workload's cube with exceptions and saves it,
// returning the dataset and snapshot paths.
func saveSmall(t *testing.T) (dataset, cube string) {
	t.Helper()
	dataset = oracle.DatasetFile(t, oracle.Small())
	cube = filepath.Join(t.TempDir(), "cube.fcb")
	var out, errw bytes.Buffer
	if err := run([]string{"-in", dataset, "-minsup", "0.05", "-exceptions", "-save", cube}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	return dataset, cube
}

// TestLoadWithoutDataset: a snapshot carries its schema, plan and
// thresholds, so -load answers without -in exactly what it answers with it,
// and -load c -save c rewrites the mapped file with the same bytes.
func TestLoadWithoutDataset(t *testing.T) {
	dataset, cube := saveSmall(t)
	for _, q := range [][]string{
		{"-summary"},
		{"-cell", "d0=*", "-exceptions"},
		{"-cell", "d0=d0.0", "-top", "3"},
		{"-op", "slice", "-select", "d0=d0.0", "-cell", "d1=*"},
		{"-cell", "d0=*", "-pathlevel", "1", "-dot"},
	} {
		var with, without, errw bytes.Buffer
		if err := run(append([]string{"-in", dataset, "-load", cube}, q...), &with, &errw); err != nil {
			t.Fatalf("%v with -in: %v", q, err)
		}
		if err := run(append([]string{"-load", cube}, q...), &without, &errw); err != nil {
			t.Fatalf("%v without -in: %v", q, err)
		}
		if with.Len() == 0 || with.String() != without.String() {
			t.Errorf("%v: output differs without -in:\n%s\n---\n%s", q, with.String(), without.String())
		}
	}

	before, err := os.ReadFile(cube)
	if err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	if err := run([]string{"-load", cube, "-save", cube}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(cube)
	if err != nil {
		t.Fatal(err)
	}
	if d := oracle.Diff(before, after); d != "" {
		t.Fatalf("-load c -save c changed the snapshot: %s", d)
	}
}

// TestLoadRejectsMismatchedDataset: a 2-dimension dataset given with a
// 3-dimension snapshot is an error naming the mismatch, not a panic while
// naming cells.
func TestLoadRejectsMismatchedDataset(t *testing.T) {
	cfg := datagen.Default()
	cfg.NumPaths, cfg.NumDims = 300, 3
	three := datagen.MustGenerate(cfg)
	cube := filepath.Join(t.TempDir(), "cube3.fcb")
	var out, errw bytes.Buffer
	if err := run([]string{"-in", oracle.DatasetFile(t, three), "-minsup", "0.05", "-save", cube}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	two := oracle.DatasetFile(t, oracle.Small())
	err := run([]string{"-in", two, "-load", cube, "-cell", "d0=*", "-top", "3"}, &out, &errw)
	if !errors.Is(err, core.ErrSchemaMismatch) {
		t.Fatalf("2-dimension dataset with a 3-dimension snapshot: %v, want ErrSchemaMismatch", err)
	}
}

// TestLoadRejectsCorruptSnapshot: a snapshot whose framing and checksums
// hold but whose cuboid section Load rejects fails -load, whatever the
// query, before anything is printed.
func TestLoadRejectsCorruptSnapshot(t *testing.T) {
	_, cube := saveSmall(t)
	data, err := os.ReadFile(cube)
	if err != nil {
		t.Fatal(err)
	}
	mutated := oracle.RewriteSection(t, data, oracle.SecCuboid, 0, func(p []byte) []byte { return append(p, 0x7f) })
	if _, err := core.Load(bytes.NewReader(mutated)); err == nil {
		t.Fatal("Load accepts the mutated snapshot")
	}
	for _, q := range [][]string{{"-summary"}, {"-cell", "d0=*"}} {
		var out, errw bytes.Buffer
		err := run(append([]string{"-load", oracle.File(t, mutated)}, q...), &out, &errw)
		var cse *core.CorruptSnapshotError
		if !errors.As(err, &cse) {
			t.Errorf("%v over a corrupt snapshot: %v, want a *CorruptSnapshotError", q, err)
		}
		if out.Len() != 0 {
			t.Errorf("%v printed %q before failing", q, out.String())
		}
	}
}
