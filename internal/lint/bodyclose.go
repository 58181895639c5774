package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// bodyclose: every *http.Response produced by a call must have its Body
// closed, or one slow/leaky fan-out path exhausts the router's connection
// pool. The check is per function and ownership-based rather than fully
// path-sensitive: a response variable must either reach a Body.Close (call
// or defer, anywhere in the function — the repo convention is `defer
// resp.Body.Close()` immediately after the error check) or visibly hand
// ownership away (returned, passed as a call argument, stored into a
// struct field or slice/map element). A response assigned to the blank
// identifier, or a response-returning call whose result is discarded
// outright, is always a leak.
//
// Kept by the ledger (DESIGN.md §5): rows BC1-BC4 — nothing else caught them.

// BodyClose flags http.Response bodies that are neither closed nor handed
// off in the producing function.
var BodyClose = &Analyzer{
	Name: "bodyclose",
	Doc:  "flags *http.Response values whose Body is neither closed nor handed off",
	Run:  runBodyClose,
}

func runBodyClose(pass *Pass) []Diagnostic {
	var diags []Diagnostic
	for _, file := range pass.Files {
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
			if body != nil {
				diags = append(diags, checkBodyClose(pass, body)...)
			}
			return true
		})
	}
	return diags
}

// responseType reports whether t is *net/http.Response.
func responseType(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named := namedOf(p.Elem())
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "Response"
}

// callYieldsResponse reports whether a call's result (single or first tuple
// element) is *http.Response.
func callYieldsResponse(pass *Pass, call *ast.CallExpr) bool {
	t := pass.Info.TypeOf(call)
	if t == nil {
		return false
	}
	if tup, ok := t.(*types.Tuple); ok {
		if tup.Len() == 0 {
			return false
		}
		t = tup.At(0).Type()
	}
	return responseType(t)
}

func checkBodyClose(pass *Pass, body *ast.BlockStmt) []Diagnostic {
	var diags []Diagnostic
	// Pass 1: response-producing assignments in this body (not nested
	// literals — they run their own check).
	type respVar struct {
		obj types.Object
		pos ast.Node
	}
	var vars []respVar
	inspectShallow(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr)
			if !ok || !callYieldsResponse(pass, call) {
				return true
			}
			id, ok := st.Lhs[0].(*ast.Ident)
			if !ok {
				return true
			}
			if id.Name == "_" {
				diags = append(diags, Diagnostic{
					Pos:     st.Pos(),
					Message: "http.Response discarded to _; its Body must be closed (read it into a variable and defer resp.Body.Close())",
				})
				return true
			}
			obj := pass.Info.Defs[id]
			if obj == nil {
				obj = pass.Info.Uses[id]
			}
			if obj != nil {
				vars = append(vars, respVar{obj: obj, pos: st})
			}
		case *ast.ExprStmt:
			call, ok := ast.Unparen(st.X).(*ast.CallExpr)
			if ok && callYieldsResponse(pass, call) {
				diags = append(diags, Diagnostic{
					Pos:     st.Pos(),
					Message: "http.Response result discarded; its Body must be closed (assign it and defer resp.Body.Close())",
				})
			}
		}
		return true
	})
	if len(vars) == 0 {
		return diags
	}
	// Pass 2: for each response variable, look for a Close or a hand-off
	// anywhere in the body, nested literals included (a deferred closure
	// closing the body counts).
	for _, v := range vars {
		if respClosedOrEscapes(pass, body, v.obj) {
			continue
		}
		diags = append(diags, Diagnostic{
			Pos: v.pos.Pos(),
			Message: fmt.Sprintf("%s.Body is never closed on some path; defer %s.Body.Close() after the error check or hand the response off",
				v.obj.Name(), v.obj.Name()),
		})
	}
	return diags
}

// respClosedOrEscapes reports whether obj's Body reaches a Close, or obj
// itself is handed off (returned, passed as an argument, stored).
func respClosedOrEscapes(pass *Pass, body *ast.BlockStmt, obj types.Object) bool {
	usesObj := func(e ast.Expr) bool {
		id := rootIdent(e)
		return id != nil && (pass.Info.Uses[id] == obj || pass.Info.Defs[id] == obj)
	}
	done := false
	ast.Inspect(body, func(n ast.Node) bool {
		if done {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			// resp.Body.Close() — selector chain Close(Body(resp)).
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Close" {
				if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok && inner.Sel.Name == "Body" && usesObj(inner.X) {
					done = true
					return false
				}
			}
			// Hand-off: resp passed as an argument.
			for _, arg := range x.Args {
				if id, ok := ast.Unparen(arg).(*ast.Ident); ok && (pass.Info.Uses[id] == obj) {
					done = true
					return false
				}
			}
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				if usesObj(r) {
					done = true
					return false
				}
			}
		case *ast.AssignStmt:
			// Hand-off: resp (or resp.Body) stored somewhere other than its
			// own defining assignment.
			for i, rhs := range x.Rhs {
				if id, ok := ast.Unparen(rhs).(*ast.Ident); ok && pass.Info.Uses[id] == obj {
					if i < len(x.Lhs) {
						if lid, ok := x.Lhs[i].(*ast.Ident); ok && lid.Name == "_" {
							continue
						}
					}
					done = true
					return false
				}
			}
		}
		return true
	})
	return done
}
