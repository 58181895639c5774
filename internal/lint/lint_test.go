package lint_test

import (
	"path/filepath"
	"strings"
	"testing"

	"flowcube/internal/lint"
	"flowcube/internal/lint/linttest"
)

// TestAnalyzers runs every analyzer over its testdata package, checking the
// findings against the // want annotations (and that allowed/suppressed
// cases stay silent).
func TestAnalyzers(t *testing.T) {
	for _, a := range lint.All() {
		t.Run(a.Name, func(t *testing.T) {
			linttest.Run(t, filepath.Join("testdata", "src", a.Name), a)
		})
	}
}

// TestLockBlockCrossPackageFacts is the acceptance test for phase-1 facts:
// the lockblock fixture holds a mutex across a call whose blocking lives in
// a different package (testdata/lockblock/dep). With facts the finding
// appears; with facts disabled the same fixture is silent, proving the
// diagnosis comes from cross-package fact flow and not from anything
// visible in the reporting package.
func TestLockBlockCrossPackageFacts(t *testing.T) {
	dir := filepath.Join("testdata", "src", "lockblock")
	pkgs, err := lint.LoadFixture(dir, "flowcube/internal/lint/testdata/lockblock")
	if err != nil {
		t.Fatal(err)
	}
	withFacts := lint.Run(pkgs, []*lint.Analyzer{lint.LockBlock})
	crossPkg := false
	for _, f := range withFacts {
		if strings.Contains(f.Message, "testdata/lockblock/dep.Fetch") {
			crossPkg = true
		}
	}
	if !crossPkg {
		t.Errorf("with facts: no finding names the cross-package callee dep.Fetch; got %v", withFacts)
	}
	if got, _ := lint.RunStats(pkgs, []*lint.Analyzer{lint.LockBlock}, nil); len(got) != 0 {
		t.Errorf("with facts disabled, lockblock must report nothing; got %v", got)
	}
}

// TestFactPropagation pins the phase-1 table down on the lockblock fixture:
// direct stdlib blocking is classified at the callee, propagates to
// module-internal callers across the package boundary, and the exported
// table is byte-deterministic.
func TestFactPropagation(t *testing.T) {
	dir := filepath.Join("testdata", "src", "lockblock")
	pkgs, err := lint.LoadFixture(dir, "flowcube/internal/lint/testdata/lockblock")
	if err != nil {
		t.Fatal(err)
	}
	table := lint.ComputeFacts(pkgs)

	fetch := table.ByKey("flowcube/internal/lint/testdata/lockblock/dep.Fetch")
	if fetch == nil || fetch.Blocks&lint.BlockNet == 0 {
		t.Fatalf("dep.Fetch fact = %+v, want blocks: net", fetch)
	}
	quick := table.ByKey("flowcube/internal/lint/testdata/lockblock/dep.Quick")
	if quick == nil || quick.Blocks != 0 {
		t.Errorf("dep.Quick fact = %+v, want blocks: none", quick)
	}
	// refresh blocks only via its cross-package callee.
	refresh := table.ByKey("flowcube/internal/lint/testdata/lockblock.(*cache).refresh")
	if refresh == nil || refresh.Blocks&lint.BlockNet == 0 {
		t.Fatalf("(*cache).refresh fact = %+v, want propagated blocks: net", refresh)
	}
	if !strings.Contains(refresh.BlockedBy, "dep.Fetch") {
		t.Errorf("(*cache).refresh BlockedBy = %q, want the dep.Fetch call chain", refresh.BlockedBy)
	}

	if a, b := lint.FormatFacts(table), lint.FormatFacts(lint.ComputeFacts(pkgs)); a != b {
		t.Errorf("FormatFacts is not deterministic across recomputation:\n%s\n---\n%s", a, b)
	}
}

// TestModuleRoot sanity-checks module discovery from a nested directory.
func TestModuleRoot(t *testing.T) {
	root, mod, err := lint.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	if mod != "flowcube" {
		t.Errorf("module path = %q, want flowcube", mod)
	}
	if filepath.Base(root) == "lint" {
		t.Errorf("module root %q should be above internal/lint", root)
	}
}
