package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// goroleak flags go statements that can leak: the spawned body blocks —
// a channel operation on a possibly-unbuffered channel, a select without
// default, or a call whose fact (or stdlib classification) says it blocks —
// and nothing ties the goroutine's lifetime to anyone: no context in scope
// (a ctx.Done select, a cancellable call, a CancelFunc to fire), no
// sync.WaitGroup, no buffered-channel escape. The motivating target is the
// scatter-gather layer in internal/cluster: a per-shard fan-out goroutine
// that blocks on a dead peer with no cancellation leaks one goroutine per
// request per dead shard, forever.
//
// Escape hatches, checked over the whole spawned body:
//
//   - any reference to a context.Context or context.CancelFunc (covers
//     <-ctx.Done(), passing ctx into the blocking call, and driving a
//     cancel);
//   - any reference to a sync.WaitGroup (structured concurrency: someone
//     joins this goroutine);
//   - a select with a default clause (the body polls instead of parking);
//   - channel operations whose channel is provably buffered (made with a
//     constant capacity > 0 in the enclosing declaration);
//   - a blocking call whose result is sent directly to a buffered channel
//     (`errc <- srv.Serve(ln)`): the goroutine cannot outlive the call and
//     its completion is observable, so lifetime belongs to the channel's
//     owner.
//
// go statements targeting named functions are checked against the callee's
// fact: spawning a blocking function without handing it a context or
// WaitGroup argument is flagged the same way.
//
// Kept by the ledger (DESIGN.md §5): rows GL1-GL6 — nothing else caught them.

// GoroLeak flags goroutines that can block forever with no cancellation,
// join, or buffered-channel escape.
var GoroLeak = &Analyzer{
	Name: "goroleak",
	Doc:  "flags go statements whose body can block forever with no ctx.Done/WaitGroup/buffered-channel escape",
	Run:  runGoroLeak,
}

// goroBlockMask is the blocking classes that can park a goroutine forever.
// File I/O returns on its own.
const goroBlockMask = BlockNet | BlockChan | BlockSync | BlockSleep | BlockExec | BlockCond

func runGoroLeak(pass *Pass) []Diagnostic {
	var diags []Diagnostic
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				return true
			}
			buffered := bufferedChans(pass, fn.Body)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if d, leak := checkGoStmt(pass, g, buffered); leak {
					diags = append(diags, d)
				}
				return true
			})
			return true
		})
	}
	return diags
}

// bufferedChans collects channel objects made with a constant capacity > 0
// anywhere in the declaration body.
func bufferedChans(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	record := func(lhs ast.Expr, rhs ast.Expr) {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || len(call.Args) < 2 {
			return
		}
		fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || fun.Name != "make" {
			return
		}
		if _, isChan := deref(pass.Info.TypeOf(call.Args[0])).(*types.Chan); !isChan {
			if _, isChan := pass.Info.TypeOf(call.Args[0]).Underlying().(*types.Chan); !isChan {
				return
			}
		}
		tv, ok := pass.Info.Types[call.Args[1]]
		if !ok || tv.Value == nil {
			return
		}
		if v, exact := constant.Int64Val(tv.Value); !exact || v <= 0 {
			return
		}
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		if obj := pass.Info.Defs[id]; obj != nil {
			out[obj] = true
		} else if obj := pass.Info.Uses[id]; obj != nil {
			out[obj] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) == len(st.Rhs) {
				for i := range st.Lhs {
					record(st.Lhs[i], st.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(st.Names) == len(st.Values) {
				for i := range st.Names {
					record(st.Names[i], st.Values[i])
				}
			}
		}
		return true
	})
	return out
}

// checkGoStmt decides whether one go statement leaks.
func checkGoStmt(pass *Pass, g *ast.GoStmt, buffered map[types.Object]bool) (Diagnostic, bool) {
	lit, isLit := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
	if !isLit {
		return checkGoCall(pass, g)
	}
	if hasEscapeToken(pass, lit.Body) {
		return Diagnostic{}, false
	}
	cause := firstBlockingOp(pass, lit.Body, buffered)
	if cause == "" {
		return Diagnostic{}, false
	}
	return Diagnostic{
		Pos: g.Pos(),
		Message: fmt.Sprintf("goroutine can block forever on %s with no ctx.Done/WaitGroup/buffered-channel escape; bound its lifetime (context, WaitGroup, or buffer the channel)",
			cause),
	}, true
}

// checkGoCall handles `go f(args)` for a named f: leak when f's fact blocks
// and no argument hands it a lifetime (context or WaitGroup).
func checkGoCall(pass *Pass, g *ast.GoStmt) (Diagnostic, bool) {
	obj, _ := calleeObj(pass.Info, g.Call).(*types.Func)
	fact := pass.Facts.Lookup(obj)
	if fact == nil || fact.Blocks&goroBlockMask == 0 {
		return Diagnostic{}, false
	}
	for _, arg := range g.Call.Args {
		t := pass.Info.TypeOf(arg)
		if isContextType(t) || isWaitGroupRef(t) {
			return Diagnostic{}, false
		}
	}
	return Diagnostic{
		Pos: g.Pos(),
		Message: fmt.Sprintf("goroutine spawns %s, which blocks (%s), with no context or WaitGroup argument to bound its lifetime",
			fact.Key, fact.Blocks&goroBlockMask),
	}, true
}

// hasEscapeToken scans a spawned body for anything that ties the
// goroutine's lifetime to an owner.
func hasEscapeToken(pass *Pass, body *ast.BlockStmt) bool {
	escape := false
	ast.Inspect(body, func(n ast.Node) bool {
		if escape {
			return false
		}
		switch x := n.(type) {
		case *ast.Ident:
			obj := pass.Info.Uses[x]
			if obj == nil {
				return true
			}
			if isContextType(obj.Type()) || isWaitGroupRef(obj.Type()) {
				escape = true
				return false
			}
		case *ast.SelectStmt:
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					escape = true
					return false
				}
			}
		}
		return true
	})
	return escape
}

// isWaitGroupRef reports whether t is sync.WaitGroup or *sync.WaitGroup.
func isWaitGroupRef(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named := namedOf(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}

// firstBlockingOp returns a description of the first op in the spawned body
// that can block indefinitely, or "".
func firstBlockingOp(pass *Pass, body *ast.BlockStmt, buffered map[types.Object]bool) string {
	cause := ""
	chanBuffered := func(e ast.Expr) bool {
		id := rootIdent(e)
		if id == nil {
			return false
		}
		obj := pass.Info.Uses[id]
		if obj == nil {
			obj = pass.Info.Defs[id]
		}
		return obj != nil && buffered[obj]
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if cause != "" {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			return false // nested goroutines are their own diagnostics
		case *ast.SendStmt:
			if !chanBuffered(x.Chan) {
				cause = "a channel send"
				return false
			}
			// The async-result idiom: `errc <- blockingCall()` on a buffered
			// channel is an escaped send AND an escaped call — the goroutine
			// cannot outlive the call, and its completion is observable on
			// the channel.
			if _, ok := ast.Unparen(x.Value).(*ast.CallExpr); ok {
				return false
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && !chanBuffered(x.X) {
				cause = "a channel receive"
			}
		case *ast.RangeStmt:
			if t := pass.Info.TypeOf(x.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan && !chanBuffered(x.X) {
					cause = "a channel range"
				}
			}
		case *ast.SelectStmt:
			// A select with default never parks; one without is covered by
			// its comm-clause channel ops when they are visible here.
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					return false
				}
			}
		case *ast.CallExpr:
			obj, _ := calleeObj(pass.Info, x).(*types.Func)
			if obj == nil {
				return true
			}
			if class, op := stdlibBlockClass(obj); class&goroBlockMask != 0 {
				cause = op
				return false
			}
			if fact := pass.Facts.Lookup(obj); fact != nil && fact.Blocks&goroBlockMask != 0 {
				cause = fact.Key + " (blocks: " + (fact.Blocks & goroBlockMask).String() + ")"
				return false
			}
		}
		return true
	})
	return cause
}
