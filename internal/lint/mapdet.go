package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// mapdet guards the byte-determinism of everything the flowcube system
// emits: persisted snapshots (core.Save), HTTP response bodies
// (/v1/summary, /v1/cell), digests, and returned slices that callers
// compare or serialize. Go randomizes map iteration order, so a
// `for range m` whose body feeds an encoder or builds an output slice
// produces a different byte stream on every run unless the iteration (or
// the collected result) is explicitly sorted.
//
// Three write-shapes are flagged inside a range-over-map body:
//
//  1. direct encode/write calls — methods named Encode, Write,
//     WriteString, WriteByte, WriteRune, WriteTo, or Sum, and the
//     fmt.Fprint*/fmt.Print* family — which serialize in iteration order;
//  2. appends that escape — v = append(v, ...) where v is mentioned by a
//     later return statement or passed to a later encode call — unless a
//     sort call (sort.* or slices.Sort*) over v appears between the loop
//     and that use;
//  3. floating-point accumulation (x += ..., x = x + ...) — FP addition is
//     not associative, so even an order-independent *set* of addends yields
//     different low bits per iteration order; KL divergences and means
//     computed this way leak nondeterminism into persisted similarities.
//
// Counters and max/min folds over maps are order-independent and are not
// flagged. The fix is the pattern core.Cuboid.SortedCells already uses:
// collect keys, sort, iterate the sorted slice.
//
// Kept by the ledger (DESIGN.md §5): row MD1 — nothing else caught it.

// MapDet flags nondeterministic map iteration feeding encoders, returned
// slices, or floating-point accumulators.
var MapDet = &Analyzer{
	Name: "mapdet",
	Doc:  "flags for-range over maps whose iteration order leaks into encoders, returned slices, or float accumulators",
	Run:  runMapDet,
}

var encodeMethodNames = map[string]bool{
	"Encode":      true,
	"Write":       true,
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
	"WriteTo":     true,
	"Sum":         true,
}

var fmtWriteFuncs = map[string]bool{
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
}

func runMapDet(pass *Pass) []Diagnostic {
	var diags []Diagnostic
	for _, file := range pass.Files {
		// Functions are analyzed one at a time so post-loop context (sorts,
		// returns, encodes) is visible.
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body == nil {
				return true
			}
			diags = append(diags, mapDetFunc(pass, body)...)
			return true
		})
	}
	return diags
}

// mapDetFunc inspects one function body. Nested function literals are
// skipped here (the outer Inspect visits them with their own context).
func mapDetFunc(pass *Pass, body *ast.BlockStmt) []Diagnostic {
	var diags []Diagnostic
	var ranges []*ast.RangeStmt
	inspectShallow(body, func(n ast.Node) bool {
		if r, ok := n.(*ast.RangeStmt); ok && isMap(pass.Info.TypeOf(r.X)) {
			ranges = append(ranges, r)
		}
		return true
	})
	for _, r := range ranges {
		diags = append(diags, mapDetRange(pass, body, r)...)
	}
	return diags
}

// inspectShallow walks n but does not descend into nested function
// literals.
func inspectShallow(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return fn(n)
	})
}

func mapDetRange(pass *Pass, funcBody *ast.BlockStmt, r *ast.RangeStmt) []Diagnostic {
	var diags []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
	}

	// Appended-to roots pending an escape check: root ident name → position
	// of the first append.
	appended := map[string]token.Pos{}

	inspectShallow(r.Body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.CallExpr:
			if name, ok := encodeCallName(pass, stmt); ok {
				report(stmt.Pos(),
					"%s inside range over map: output depends on map iteration order; iterate sorted keys instead", name)
			}
		case *ast.AssignStmt:
			for i, lhs := range stmt.Lhs {
				if i < len(stmt.Rhs) {
					if call, ok := ast.Unparen(stmt.Rhs[i]).(*ast.CallExpr); ok && isBuiltinAppend(pass, call) {
						if root := rootIdent(lhs); root != nil {
							if _, seen := appended[root.Name]; !seen {
								appended[root.Name] = stmt.Pos()
							}
							continue
						}
					}
				}
				if isFloatAccum(pass, stmt, i, lhs) {
					report(stmt.Pos(),
						"floating-point accumulation over map iteration: addition order changes the result bits; iterate outcomes in sorted order")
				}
			}
		}
		return true
	})

	for root, pos := range appended {
		if use, ok := escapeUse(pass, funcBody, r, root); ok && !sortedBetween(pass, funcBody, r, use, root) {
			report(pos,
				"slice %s is built in map iteration order and later %s; sort it (or the keys) before use", root, use.kind)
		}
	}
	return diags
}

// encodeCallName classifies calls that serialize state in call order.
func encodeCallName(pass *Pass, call *ast.CallExpr) (string, bool) {
	fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	// Method on some value: treat every Write/Encode-family method as
	// serializing in call order.
	if encodeMethodNames[fun.Sel.Name] {
		if sel := pass.Info.Selections[fun]; sel != nil && sel.Kind() == types.MethodVal {
			return "call to " + fun.Sel.Name, true
		}
	}
	// Package-qualified fmt writer (fmt.Fprintf and friends).
	if fmtWriteFuncs[fun.Sel.Name] && calleePkgPath(pass.Info, call) == "fmt" {
		return "call to fmt." + fun.Sel.Name, true
	}
	return "", false
}

func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := pass.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// isFloatAccum reports whether the i-th assignment target accumulates a
// floating-point value (x += e, x -= e, x *= e, or x = x + e).
func isFloatAccum(pass *Pass, stmt *ast.AssignStmt, i int, lhs ast.Expr) bool {
	if !isFloat(pass.Info.TypeOf(lhs)) {
		return false
	}
	switch stmt.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		return true
	case token.ASSIGN:
		if i >= len(stmt.Rhs) {
			return false
		}
		bin, ok := ast.Unparen(stmt.Rhs[i]).(*ast.BinaryExpr)
		if !ok || (bin.Op != token.ADD && bin.Op != token.SUB && bin.Op != token.MUL) {
			return false
		}
		lroot := rootIdent(lhs)
		xroot, yroot := rootIdent(bin.X), rootIdent(bin.Y)
		return lroot != nil &&
			((xroot != nil && xroot.Name == lroot.Name) || (yroot != nil && yroot.Name == lroot.Name))
	}
	return false
}

// escape describes how a loop-built slice leaves the function.
type escape struct {
	kind string // "returned" or "encoded"
	pos  token.Pos
}

// escapeUse looks for a use of root after the range loop that makes
// iteration order observable: a return statement mentioning it, or an
// encode call taking it.
func escapeUse(pass *Pass, funcBody *ast.BlockStmt, r *ast.RangeStmt, root string) (escape, bool) {
	var found escape
	var ok bool
	inspectShallow(funcBody, func(n ast.Node) bool {
		if n == nil || ok {
			return false
		}
		if n.Pos() < r.End() {
			return true // only statements after the loop matter
		}
		switch stmt := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range stmt.Results {
				if mentionsIdentObservably(pass, res, root) {
					found, ok = escape{kind: "returned", pos: stmt.Pos()}, true
				}
			}
		case *ast.CallExpr:
			if _, enc := encodeCallName(pass, stmt); enc {
				for _, arg := range stmt.Args {
					if mentionsIdent(arg, root) {
						found, ok = escape{kind: "encoded", pos: stmt.Pos()}, true
					}
				}
			}
		}
		return !ok
	})
	// Named results make a bare return an escape too; handled by the
	// mention check only when explicit. Keep conservative.
	return found, ok
}

// sortedBetween reports whether a sort call over root appears after the
// loop and before the escaping use.
func sortedBetween(pass *Pass, funcBody *ast.BlockStmt, r *ast.RangeStmt, use escape, root string) bool {
	sorted := false
	inspectShallow(funcBody, func(n ast.Node) bool {
		if sorted || n == nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if call.Pos() < r.End() || call.Pos() > use.pos {
			return true
		}
		pkg := calleePkgPath(pass.Info, call)
		if pkg != "sort" && pkg != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if mentionsIdent(arg, root) {
				sorted = true
			}
		}
		return !sorted
	})
	return sorted
}

func mentionsIdent(e ast.Expr, name string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}

// mentionsIdentObservably is mentionsIdent, except that mentions inside
// len(x)/cap(x) do not count: those observe only the size, which is
// independent of iteration order.
func mentionsIdentObservably(pass *Pass, e ast.Expr, name string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if id, isID := ast.Unparen(call.Fun).(*ast.Ident); isID {
				if b, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin &&
					(b.Name() == "len" || b.Name() == "cap") {
					return false
				}
			}
		}
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}
