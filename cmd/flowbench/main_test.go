package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFigureSmoke(t *testing.T) {
	dir := t.TempDir()
	cpuPath := filepath.Join(dir, "cpu.pprof")
	memPath := filepath.Join(dir, "mem.pprof")
	var out, errw bytes.Buffer
	err := run([]string{
		"-fig", "9", "-scale", "0.005", "-support-floor", "25",
		"-algos", "shared", "-quiet", "-cpuprofile", cpuPath, "-memprofile", memPath,
	}, &out, &errw)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# Figure 9", "shared", "a", "b", "c"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("figure output missing %q:\n%s", want, out.String())
		}
	}
	for _, p := range []string{cpuPath, memPath} {
		info, err := os.Stat(p)
		if err != nil {
			t.Errorf("profile %s: %v", p, err)
		} else if info.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

func TestAblationSmoke(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{
		"-ablation", "merge,counting", "-scale", "0.005", "-support-floor", "25", "-quiet",
	}, &out, &errw)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"A2:", "A3:", "algebraic merge", "candidate trie"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("ablation output missing %q:\n%s", want, out.String())
		}
	}
}

func TestSelectionErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "99"},
		{"-ablation", "nosuch"},
		{"-badflag"},
	} {
		var out, errw bytes.Buffer
		if err := run(args, &out, &errw); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
