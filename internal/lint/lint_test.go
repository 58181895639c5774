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
	// lockblock is locksafe's fact-driven half: locks held across module
	// calls whose blocking only the fact table proves.
	t.Run("lockblock", func(t *testing.T) {
		linttest.Run(t, filepath.Join("testdata", "src", "lockblock"), lint.LockSafe)
	})
}

// loadLockFixture loads the lockblock fixture with its dep and relay
// packages.
func loadLockFixture(t *testing.T) []*lint.Package {
	t.Helper()
	pkgs, err := lint.LoadFixture(filepath.Join("testdata", "src", "lockblock"), "flowcube/internal/lint/testdata/lockblock")
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// TestLockBlockCrossPackageFacts is the acceptance test for phase-1 facts:
// the lockblock fixture holds a mutex across a call whose blocking lives in
// a different package (testdata/lockblock/dep). With facts the finding
// appears; with facts disabled the same fixture is silent, proving the
// diagnosis comes from cross-package fact flow and not from anything
// visible in the reporting package.
func TestLockBlockCrossPackageFacts(t *testing.T) {
	pkgs := loadLockFixture(t)
	crossPkg := func(findings []lint.Finding) bool {
		for _, f := range findings {
			if strings.Contains(f.Message, "testdata/lockblock/dep.Fetch") {
				return true
			}
		}
		return false
	}
	withFacts := lint.Run(pkgs, []*lint.Analyzer{lint.LockSafe})
	if !crossPkg(withFacts) {
		t.Errorf("with facts: no finding names the cross-package callee dep.Fetch; got %v", withFacts)
	}
	without, _ := lint.RunStats(pkgs, []*lint.Analyzer{lint.LockSafe}, nil)
	if len(without) != 0 {
		t.Errorf("with facts disabled the fixture must be silent; got %v", without)
	}
}

// TestFactPropagation pins the phase-1 table down on the lockblock fixture:
// direct stdlib blocking is classified at the callee, propagates to
// module-internal callers across the package boundary, and the exported
// table is byte-deterministic.
func TestFactPropagation(t *testing.T) {
	pkgs := loadLockFixture(t)
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
	if cause := refresh.Cause(lint.BlockNet); !strings.Contains(cause, "dep.Fetch") {
		t.Errorf("(*cache).refresh cause = %q, want the dep.Fetch call chain", cause)
	}

	if a, b := lint.FormatFacts(table), lint.FormatFacts(lint.ComputeFacts(pkgs)); a != b {
		t.Errorf("FormatFacts is not deterministic across recomputation:\n%s\n---\n%s", a, b)
	}
}

// TestLoadFixtureSiblingImports loads a fixture whose dependency relay
// imports its sibling dependency dep: dep is checked first, exactly once,
// and relay's import of it is the very package LoadFixture returns.
func TestLoadFixtureSiblingImports(t *testing.T) {
	pkgs := loadLockFixture(t)
	byPath := make(map[string]*lint.Package)
	var order []string
	for _, p := range pkgs {
		if byPath[p.PkgPath] != nil {
			t.Errorf("%s loaded twice", p.PkgPath)
		}
		byPath[p.PkgPath] = p
		order = append(order, p.PkgPath)
	}
	const base = "flowcube/internal/lint/testdata/lockblock"
	want := []string{base + "/dep", base + "/relay", base}
	if strings.Join(order, " ") != strings.Join(want, " ") {
		t.Errorf("load order = %v, want %v", order, want)
	}
	relay, dep := byPath[base+"/relay"], byPath[base+"/dep"]
	if relay == nil || dep == nil {
		t.Fatalf("fixture dependencies missing: %v", order)
	}
	imports := relay.Pkg.Imports()
	if len(imports) != 1 || imports[0] != dep.Pkg {
		t.Errorf("relay imports %v, want exactly the loaded dep package %p", imports, dep.Pkg)
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
