// Package lint is flowlint's analysis framework: a small, stdlib-only
// reimplementation of the golang.org/x/tools/go/analysis vocabulary
// (Analyzer, Pass, Diagnostic, and a Facts table) plus the project-specific
// analyzers that machine-check the contracts the flowcube codebase
// otherwise states only in prose. Five are single-package: the
// immutable-after-build cube (immutcube), map iteration order leaking into
// output (mapdet), epsilon-safe floating-point comparisons (floatcmp),
// surfaced errors on persistence paths (errpath), and unclosed HTTP response
// bodies (bodyclose). Three read cross-package facts: locks held across
// blocking calls, direct or interprocedural (locksafe), leak-prone goroutine
// spawns (goroleak), and context plumbing on blocking exported surfaces
// (ctxflow). Each is in the suite because a bug of a class it reports,
// seeded into product code, was caught by nothing else — not go vet, not the
// -race test suite (the ledger is DESIGN.md §5); what the byte-exact tests or
// vet's copylocks already catch (nondeterminism in the snapshot codec, locks
// copied by value) has no analyzer here.
//
// Analysis is two-phase. Phase 1 (facts.go) walks every loaded package and
// summarizes each function into a FuncFact — blocking classes from the one
// classifier every analyzer shares, goroutine spawns, context
// acceptance/forwarding — propagated over the module-internal call graph and
// keyed by canonical function name.
// Phase 2 runs the analyzers one package at a time with the whole table in
// Pass.Facts, which is how a lock site in one package learns that its
// callee in another package blocks.
//
// The framework is deliberately tiny: packages are parsed and type-checked
// with go/parser and go/types, each module package once, in import order
// (load.go); only the standard library resolves through the stdlib source
// importer. It exists because the dependency set is pinned — x/tools is not
// available — and because eight narrow project analyzers do not need the
// full Fact/Requires machinery.
//
// Suppression: a diagnostic is dropped when the offending line (or the line
// directly above it) carries a comment of the form
//
//	//flowlint:ignore <analyzer> <reason>
//
// naming the reporting analyzer. errpath additionally honors the
// conventional //nolint:errcheck.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	Name string
	// Doc is a one-paragraph description of the enforced contract.
	Doc string
	// Run inspects one package and returns its diagnostics.
	Run func(*Pass) []Diagnostic
}

// Pass carries one type-checked package through an analyzer. Facts is the
// phase-1 cross-package fact table over every package in the Run; it is nil
// when facts are disabled, and fact-driven analyzers (locksafe, goroleak,
// ctxflow) degrade to their purely syntactic subset in that mode.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	Facts *FactTable
}

// Diagnostic is one finding, positioned inside the package under analysis.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Filename returns the base name of the file containing pos.
func (p *Pass) Filename(pos token.Pos) string {
	return filepath.Base(p.Fset.Position(pos).Filename)
}

// All returns the flowlint analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		ImmutCube,
		MapDet,
		LockSafe,
		FloatCmp,
		ErrPath,
		GoroLeak,
		CtxFlow,
		BodyClose,
	}
}

// Finding is a Diagnostic resolved against its package and analyzer, ready
// for printing.
type Finding struct {
	Position token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Position, f.Analyzer, f.Message)
}

// AnalyzerStat is one analyzer's aggregate over a Run: surviving findings
// and wall time summed across packages.
type AnalyzerStat struct {
	Name     string
	Findings int
	Elapsed  time.Duration
}

// Run applies every analyzer to every package — phase 1 computes the
// cross-package fact table, phase 2 runs the analyzers over it — resolves
// ignore directives, and returns the surviving findings sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	findings, _ := RunStats(pkgs, analyzers, ComputeFacts(pkgs))
	return findings
}

// RunStats is Run over an explicit fact table — nil disables facts, and
// fact-driven analyzers degrade to their syntactic subset — plus
// per-analyzer finding counts and wall time, in analyzer order.
func RunStats(pkgs []*Package, analyzers []*Analyzer, facts *FactTable) ([]Finding, []AnalyzerStat) {
	stats := make([]AnalyzerStat, len(analyzers))
	for i, a := range analyzers {
		stats[i].Name = a.Name
	}
	var out []Finding
	for _, pkg := range pkgs {
		ignores := collectIgnores(pkg.Fset, pkg.Files)
		pass := &Pass{Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Pkg, Info: pkg.Info, Facts: facts}
		for i, a := range analyzers {
			start := time.Now()
			for _, d := range a.Run(pass) {
				pos := pkg.Fset.Position(d.Pos)
				if ignores.suppresses(a.Name, pos) {
					continue
				}
				out = append(out, Finding{Position: pos, Analyzer: a.Name, Message: d.Message})
				stats[i].Findings++
			}
			stats[i].Elapsed += time.Since(start)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := out[i].Position, out[j].Position
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, stats
}

// ignoreIndex maps file → line → analyzer names suppressed on that line.
type ignoreIndex map[string]map[int][]string

func collectIgnores(fset *token.FileSet, files []*ast.File) ignoreIndex {
	idx := make(ignoreIndex)
	add := func(pos token.Position, name string) {
		m := idx[pos.Filename]
		if m == nil {
			m = make(map[int][]string)
			idx[pos.Filename] = m
		}
		m[pos.Line] = append(m[pos.Line], name)
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				switch {
				case strings.HasPrefix(text, "flowlint:ignore"):
					rest := strings.Fields(strings.TrimPrefix(text, "flowlint:ignore"))
					if len(rest) > 0 {
						add(fset.Position(c.Pos()), rest[0])
					}
				case strings.HasPrefix(text, "nolint:"):
					// Only the first whitespace-separated field is the
					// linter list; anything after is explanation.
					names, _, _ := strings.Cut(strings.TrimPrefix(text, "nolint:"), " ")
					for _, name := range strings.Split(names, ",") {
						name = strings.TrimSpace(name)
						if name == "errcheck" {
							// The conventional errcheck directive maps to
							// errpath, flowlint's discarded-error analyzer.
							add(fset.Position(c.Pos()), "errpath")
						}
					}
				}
			}
		}
	}
	return idx
}

// suppresses reports whether a directive on the diagnostic's line, or the
// line directly above it, names the analyzer.
func (idx ignoreIndex) suppresses(analyzer string, pos token.Position) bool {
	lines := idx[pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, name := range lines[line] {
			if name == analyzer {
				return true
			}
		}
	}
	return false
}

// --- shared type helpers used by several analyzers ---

// deref unwraps pointers and named types down to the underlying type.
func deref(t types.Type) types.Type {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			t = u.Underlying()
		case *types.Alias:
			t = types.Unalias(u)
		default:
			return t
		}
	}
}

// namedOf returns the named type behind t (through pointers), or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(u)
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// isFloat reports whether t is (or has underlying) float32/float64 or an
// untyped float constant type.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isMap reports whether t's underlying type is a map.
func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// rootIdent descends through selectors, indexes, parens, and stars to the
// leftmost identifier of an expression, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.CallExpr:
			e = x.Fun
		default:
			return nil
		}
	}
}

// calleeObj resolves the called function or method object, or nil.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// calleePkgPath returns the import path of the called function's package,
// or "" for builtins and locals without package.
func calleePkgPath(info *types.Info, call *ast.CallExpr) string {
	obj := calleeObj(info, call)
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}
