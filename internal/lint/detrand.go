package lint

import (
	"fmt"
	"strings"
)

// detrand guards the paper's central guarantee — deterministic, lossless
// aggregation — at its most fragile point: the byte-deterministic snapshot
// codec. Split/merge round-trips, shard-append parity, and the golden
// v1→v2 fixture all assert exact bytes; one time.Now, math/rand draw, or
// emitted map iteration anywhere in the Save call tree breaks every one of
// them, possibly only under rare orderings.
//
// The analyzer is fact-driven and interprocedural: it takes the package-
// level determinism roots below (the entry points whose output is asserted
// byte-identical), computes the set of functions reachable from them over
// the cross-package call graph, and reports every nondeterminism source
// phase 1 recorded inside that set — including sources inside go-spawned
// codec workers, which fold into their declaring function's facts. With
// facts disabled the analyzer reports nothing (reachability is undefined).
//
// DeterminismRoots is an allowlist by construction: adding an entry puts a
// function's whole call tree under the no-nondeterminism contract. Keep it
// to functions whose output bytes a test asserts equality on.

// DeterminismRoots names the functions (by fact key) whose call trees must
// be free of nondeterminism. They are the entry points proven
// byte-deterministic by TestSaveIsByteDeterministic, the split/merge digest
// property tests, and the shard-append parity tests.
var DeterminismRoots = []string{
	"flowcube/internal/core.(*Cube).Save",
	"flowcube/internal/cluster.WriteShards",
	"flowcube/internal/cluster.Split",
	"flowcube/internal/cluster.Merge",
}

// DetRand flags time.Now/math/rand/emitted-map-iteration reachable from
// the byte-deterministic save/codec entry points.
var DetRand = &Analyzer{
	Name: "detrand",
	Doc:  "flags time.Now, math/rand, and emitted map iteration reachable from the byte-deterministic snapshot codec",
	Run:  runDetRand,
}

func runDetRand(pass *Pass) []Diagnostic {
	if pass.Facts == nil {
		return nil
	}
	roots := DeterminismRoots
	if extra := fixtureRoots(pass); len(extra) > 0 {
		roots = append(append([]string(nil), roots...), extra...)
	}
	reach := pass.Facts.Reachable(roots)
	if len(reach) == 0 {
		return nil
	}
	var diags []Diagnostic
	for _, key := range pass.Facts.PkgKeys(pass.Pkg.Path()) {
		if !reach[key] {
			continue
		}
		fact := pass.Facts.ByKey(key)
		for _, op := range fact.Nondet {
			diags = append(diags, Diagnostic{
				Pos: op.Pos,
				Message: fmt.Sprintf("%s inside %s, which is reachable from a determinism root; snapshot bytes must not depend on it (hoist it out of the save path or thread it in as data)",
					op.What, shortKey(key)),
			})
		}
	}
	return diags
}

// shortKey trims the module prefix for readable diagnostics.
func shortKey(key string) string {
	if i := strings.LastIndex(key, "/"); i >= 0 {
		return key[i+1:]
	}
	return key
}

// fixtureRoots lets testdata packages declare their own determinism roots:
// a package-level comment of the form
//
//	//flowlint:detrand-root <FuncName>
//
// marks pkgpath.FuncName as a root. Production packages do not use this —
// the real roots are the DeterminismRoots table above, reviewed in code —
// but the golden fixtures need self-contained packages.
func fixtureRoots(pass *Pass) []string {
	var roots []string
	for _, file := range pass.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "flowlint:detrand-root ")
				if !ok {
					continue
				}
				for _, name := range strings.Fields(rest) {
					roots = append(roots, pass.Pkg.Path()+"."+name)
				}
			}
		}
	}
	return roots
}
