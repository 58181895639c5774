package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// ctxflow machine-checks context plumbing — the discipline that lets the
// cluster's scatter-gather reads be cancelled instead of piling up behind a
// dead shard. Three checks:
//
//  1. Exported functions whose facts say they block on the outside world
//     (net, sleep, subprocess — not CPU-parallel channel/WaitGroup joins)
//     must accept a context.Context, carry a *http.Request (whose Context
//     travels with it), or derive their own. A blocking exported surface
//     with no context is uncancellable by construction.
//  2. context.Background()/TODO() belongs in package main (the process
//     root) and in the sanctioned context-less convenience wrapper — a
//     single-statement body forwarding to a Context-suffixed sibling.
//     Anywhere else it silently detaches work from its caller's lifetime;
//     derive from the caller's ctx (context.WithoutCancel for deliberate
//     detachment) instead.
//  3. context.Context stored in a struct field outlives the call tree it
//     was scoped to; pass it as the first parameter instead.
//
// Check 1 is fact-driven (transitive blocking over the cross-package call
// graph); with facts disabled it degrades to direct stdlib blocking only.
//
// Kept by the ledger (DESIGN.md §5): rows CF1-CF6 — nothing else caught them.

// CtxFlow flags blocking exported functions without a context, stray
// context.Background/TODO, and contexts stored in struct fields.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "flags blocking exported functions with no context.Context, context.Background outside main/wrappers, and ctx stored in struct fields",
	Run:  runCtxFlow,
}

// ctxBlockMask is the blocking classes that demand cancellation: waits on
// the outside world. Channel and WaitGroup joins of CPU-bound workers
// complete on their own and are exempt, and so is local file I/O.
const ctxBlockMask = BlockNet | BlockSleep | BlockExec

func runCtxFlow(pass *Pass) []Diagnostic {
	var diags []Diagnostic
	isMain := pass.Pkg.Name() == "main"
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if d, bad := checkExportedBlocking(pass, fn, isMain); bad {
				diags = append(diags, d)
			}
			if fn.Body != nil {
				diags = append(diags, checkBackground(pass, fn, isMain)...)
			}
		}
		diags = append(diags, checkCtxFields(pass, file)...)
	}
	return diags
}

// checkExportedBlocking applies check 1 to one declaration.
func checkExportedBlocking(pass *Pass, fn *ast.FuncDecl, isMain bool) (Diagnostic, bool) {
	if isMain || !fn.Name.IsExported() {
		return Diagnostic{}, false
	}
	obj, _ := pass.Info.Defs[fn.Name].(*types.Func)
	fact := pass.Facts.Lookup(obj)
	if fact == nil {
		return Diagnostic{}, false
	}
	if fact.Blocks&ctxBlockMask == 0 {
		return Diagnostic{}, false
	}
	if fact.AcceptsCtx || fact.HasHTTPRequest || fact.DerivesCtx || fact.CtxWrapper {
		return Diagnostic{}, false
	}
	return Diagnostic{
		Pos: fn.Name.Pos(),
		Message: fmt.Sprintf("exported %s blocks (%s; %s) but neither takes nor derives a context.Context; callers cannot cancel it",
			fn.Name.Name, (fact.Blocks & ctxBlockMask).String(), fact.Cause(ctxBlockMask)),
	}, true
}

// checkBackground applies check 2 inside one declaration.
func checkBackground(pass *Pass, fn *ast.FuncDecl, isMain bool) []Diagnostic {
	if isMain {
		return nil
	}
	obj, _ := pass.Info.Defs[fn.Name].(*types.Func)
	if fact := pass.Facts.Lookup(obj); fact != nil && fact.CtxWrapper {
		return nil
	}
	// Without facts (single-analyzer or facts-disabled runs), recognize the
	// wrapper shape directly so the check does not regress.
	if isCtxWrapper(&Package{PkgPath: pass.Pkg.Path(), Files: pass.Files, Info: pass.Info}, fn) {
		return nil
	}
	var diags []Diagnostic
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := calleeObj(pass.Info, call)
		if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "context" {
			return true
		}
		if obj.Name() != "Background" && obj.Name() != "TODO" {
			return true
		}
		diags = append(diags, Diagnostic{
			Pos: call.Pos(),
			Message: fmt.Sprintf("context.%s outside package main detaches work from its caller's lifetime; accept a ctx parameter (use context.WithoutCancel for deliberate detachment)",
				obj.Name()),
		})
		return true
	})
	return diags
}

// checkCtxFields applies check 3 to one file's type declarations.
func checkCtxFields(pass *Pass, file *ast.File) []Diagnostic {
	var diags []Diagnostic
	ast.Inspect(file, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			return true
		}
		for _, f := range st.Fields.List {
			t := pass.Info.TypeOf(f.Type)
			if t == nil {
				continue
			}
			named := namedOf(t)
			if named == nil {
				continue
			}
			o := named.Obj()
			if o.Pkg() != nil && o.Pkg().Path() == "context" && o.Name() == "Context" {
				diags = append(diags, Diagnostic{
					Pos: f.Pos(),
					Message: fmt.Sprintf("struct %s stores a context.Context in a field; contexts are call-scoped — pass ctx as the first parameter instead",
						ts.Name.Name),
				})
			}
		}
		return true
	})
	return diags
}
