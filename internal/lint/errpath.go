package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// errpath keeps persistence and I/O paths honest about failure. A cube
// snapshot that half-saved because a Close error was dropped, a path
// database whose final Flush failed silently, a CLI that ignored its flag
// parser — all corrupt downstream state without a trace. The analyzer
// flags any *implicitly* discarded error: an expression statement (or
// defer/go) whose call returns an error that nothing receives.
//
// Explicit discards stay legal and visible: `_ = f.Close()` says "I
// considered this error and chose to drop it" and is the idiomatic fix for
// best-effort cleanup on read-only files. The conventional
// //nolint:errcheck (and //flowlint:ignore errpath) comments suppress a
// finding in place.
//
// Exemptions, to keep the signal high:
//   - fmt.Print/Printf/Println — terminal chatter, errors unactionable;
//   - fmt.Fprint* into strings.Builder, bytes.Buffer, or os.Stdout/Stderr —
//     in-memory sinks never fail, and stdout failures are unactionable;
//   - fmt.Fprint* into a destination typed as an interface (io.Writer) —
//     the report-rendering convention throughout cmd/* and internal/bench;
//     the sink is the caller's choice and in practice a standard stream;
//   - methods on strings.Builder and bytes.Buffer (Write* are documented
//     to always return a nil error).
//
// fmt.Fprint* into a concrete failing writer (*os.File other than the
// standard streams, *bufio.Writer, net.Conn) is flagged: those are
// precisely the persistence paths that lose data.
//
// Kept by the ledger (DESIGN.md §5): rows EP1-EP3 — nothing else caught them.

// ErrPath flags implicitly discarded error results.
var ErrPath = &Analyzer{
	Name: "errpath",
	Doc:  "flags call statements that silently discard an error result; handle it or assign to _",
	Run:  runErrPath,
}

func runErrPath(pass *Pass) []Diagnostic {
	var diags []Diagnostic
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				if c, ok := ast.Unparen(stmt.X).(*ast.CallExpr); ok {
					call = c
				}
			case *ast.DeferStmt:
				call = stmt.Call
			case *ast.GoStmt:
				call = stmt.Call
			}
			if call == nil {
				return true
			}
			if !returnsError(pass, call) || errPathExempt(pass, call) {
				return true
			}
			diags = append(diags, Diagnostic{
				Pos: call.Pos(),
				Message: fmt.Sprintf(
					"error result of %s is silently discarded; handle it or assign to _ explicitly",
					callDescription(pass, call)),
			})
			return true
		})
	}
	return diags
}

// returnsError reports whether the call's last result is an error.
func returnsError(pass *Pass, call *ast.CallExpr) bool {
	t := pass.Info.TypeOf(call)
	if t == nil {
		return false
	}
	switch rt := t.(type) {
	case *types.Tuple:
		if rt.Len() == 0 {
			return false
		}
		t = rt.At(rt.Len() - 1).Type()
	}
	named := namedOf(t)
	return named != nil && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

func errPathExempt(pass *Pass, call *ast.CallExpr) bool {
	obj := calleeObj(pass.Info, call)
	if obj == nil {
		return false
	}
	// Methods on never-failing in-memory writers.
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		if recvNamed := namedOf(sig.Recv().Type()); recvNamed != nil {
			rp := recvNamed.Obj()
			if rp.Pkg() != nil {
				switch rp.Pkg().Path() + "." + rp.Name() {
				case "strings.Builder", "bytes.Buffer":
					return true
				}
			}
		}
	}
	if obj.Pkg() == nil || obj.Pkg().Path() != "fmt" {
		return false
	}
	name := obj.Name()
	switch name {
	case "Print", "Printf", "Println":
		return true
	case "Fprint", "Fprintf", "Fprintln":
		if len(call.Args) == 0 {
			return false
		}
		return benignWriter(pass, call.Args[0])
	}
	return false
}

// benignWriter reports whether the fmt.Fprint* destination cannot fail in a
// way the program should handle: an in-memory builder/buffer, or the
// process's standard streams.
func benignWriter(pass *Pass, w ast.Expr) bool {
	w = ast.Unparen(w)
	if sel, ok := w.(*ast.SelectorExpr); ok {
		if obj := pass.Info.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil &&
			obj.Pkg().Path() == "os" && (obj.Name() == "Stdout" || obj.Name() == "Stderr") {
			return true
		}
	}
	t := pass.Info.TypeOf(w)
	if t == nil {
		return false
	}
	// Interface-typed destination: the concrete sink is the caller's
	// choice (report-rendering convention); not a persistence path here.
	if _, isIface := t.Underlying().(*types.Interface); isIface {
		return true
	}
	if named := namedOf(t); named != nil {
		obj := named.Obj()
		if obj.Pkg() != nil {
			switch obj.Pkg().Path() + "." + obj.Name() {
			case "strings.Builder", "bytes.Buffer":
				return true
			}
		}
	}
	return false
}

func callDescription(pass *Pass, call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if obj := calleeObj(pass.Info, call); obj != nil && obj.Pkg() != nil {
			if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
				if recvNamed := namedOf(sig.Recv().Type()); recvNamed != nil {
					return recvNamed.Obj().Name() + "." + fun.Sel.Name
				}
			}
			return obj.Pkg().Name() + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "call"
}
