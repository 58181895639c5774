package main

import (
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"

	"flowcube/internal/lint"
)

func TestListAnalyzers(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run(-list) = %d, stderr: %s", code, stderr.String())
	}
	for _, a := range lint.All() {
		if !strings.Contains(stdout.String(), a.Name) {
			t.Errorf("-list output missing analyzer %s:\n%s", a.Name, stdout.String())
		}
	}
}

func TestUnknownAnalyzer(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-only", "nope"}, &stdout, &stderr); code != 2 {
		t.Fatalf("run(-only nope) = %d, want 2", code)
	}
}

// TestFindingsExitCode points the checker at a seeded-bad testdata package
// and expects exit status 1 with findings on stdout.
func TestFindingsExitCode(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-only", "errpath", "../../internal/lint/testdata/src/errpath"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("run over seeded-bad package = %d, want 1\nstdout: %s\nstderr: %s",
			code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "[errpath]") {
		t.Errorf("findings missing [errpath] tag:\n%s", stdout.String())
	}
}

// moduleLoad type-checks the whole module once per test binary, from its
// root: the two whole-module tests below share the result.
var moduleLoad = sync.OnceValues(func() ([]*lint.Package, error) {
	root, _, err := lint.ModuleRoot(".")
	if err != nil {
		return nil, err
	}
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	if err := os.Chdir(root); err != nil {
		return nil, err
	}
	pkgs, err := lint.Load([]string{"./..."})
	if cerr := os.Chdir(cwd); err == nil {
		err = cerr
	}
	return pkgs, err
})

// loadModule is moduleLoad for one test, skipped under -short.
func loadModule(t *testing.T) []*lint.Package {
	t.Helper()
	if testing.Short() {
		t.Skip("whole-module type-check is slow")
	}
	pkgs, err := moduleLoad()
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// TestRepoIsClean runs the full analyzer suite over the whole module, so
// `go test ./...` enforces flowlint cleanliness alongside `make lint`.
func TestRepoIsClean(t *testing.T) {
	for _, f := range lint.Run(loadModule(t), lint.All()) {
		t.Errorf("%s", f)
	}
}

// TestLoadMatchesGoList pins the loader's package discovery to the go
// command's: every package `go list` reports with non-test Go files —
// cmd/* included — must be loaded by Load("./..."), and nothing else. A
// drift here means TestRepoIsClean is silently skipping packages.
func TestLoadMatchesGoList(t *testing.T) {
	pkgs := loadModule(t)
	root, _, err := lint.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "list", "-f", "{{if .GoFiles}}{{.ImportPath}}{{end}}", "./...")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	want := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if line != "" {
			want[line] = true
		}
	}

	got := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		got[p.PkgPath] = true
		if !want[p.PkgPath] {
			t.Errorf("Load(./...) loaded %s, which go list does not report", p.PkgPath)
		}
	}
	for path := range want {
		if !got[path] {
			t.Errorf("Load(./...) missed %s (reported by go list)", path)
		}
	}
	if !got["flowcube/cmd/flowlint"] || !got["flowcube/cmd/flowserve"] {
		t.Error("Load(./...) must cover the cmd/* packages")
	}
}

// TestDeterministicOutput runs the checker twice over the same seeded-bad
// fixture and requires byte-identical findings and fact dumps — `make
// lint` output must not depend on map iteration or scheduling.
func TestDeterministicOutput(t *testing.T) {
	args := []string{"-only", "errpath,floatcmp",
		"../../internal/lint/testdata/src/errpath",
		"../../internal/lint/testdata/src/floatcmp"}
	var first string
	for i := 0; i < 2; i++ {
		var stdout, stderr strings.Builder
		if code := run(args, &stdout, &stderr); code != 1 {
			t.Fatalf("run #%d = %d, want 1\nstderr: %s", i, code, stderr.String())
		}
		if i == 0 {
			first = stdout.String()
		} else if stdout.String() != first {
			t.Errorf("findings differ between identical runs:\n--- run 0\n%s--- run 1\n%s", first, stdout.String())
		}
	}

	var facts string
	for i := 0; i < 2; i++ {
		var stdout, stderr strings.Builder
		if code := run([]string{"-facts", "../../internal/lint/testdata/src/errpath"}, &stdout, &stderr); code != 0 {
			t.Fatalf("run(-facts) #%d = %d\nstderr: %s", i, code, stderr.String())
		}
		if i == 0 {
			facts = stdout.String()
			if facts == "" {
				t.Fatal("-facts printed nothing")
			}
		} else if stdout.String() != facts {
			t.Errorf("fact table differs between identical runs:\n--- run 0\n%s--- run 1\n%s", facts, stdout.String())
		}
	}
}
