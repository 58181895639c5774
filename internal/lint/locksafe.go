package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
)

// locksafe machine-checks the serving layer's lock discipline: a
// sync.Mutex/RWMutex held while calling into net, net/http, os, os/exec, or
// time.Sleep turns one slow client into a server-wide stall (every waiter on
// the lock queues behind the I/O). The cache's single-flight path
// deliberately drops the lock before computing; this analyzer keeps it that
// way. Lock-bearing structs copied by value are go vet's copylocks' to
// report, not this analyzer's.
//
// Kept by the ledger (DESIGN.md §5): rows LS3, LS4 — nothing else caught them.

// LockSafe flags mutexes held across blocking I/O.
var LockSafe = &Analyzer{
	Name: "locksafe",
	Doc:  "flags sync.Mutex/RWMutex held across blocking I/O",
	Run:  runLockSafe,
}

// blockingPkgs are packages whose calls are treated as blocking I/O.
var blockingPkgs = map[string]bool{
	"net":      true,
	"net/http": true,
	"os":       true,
	"os/exec":  true,
}

func runLockSafe(pass *Pass) []Diagnostic {
	var diags []Diagnostic
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body != nil {
				diags = append(diags, newLockScan(pass).block(body, newHeldSet())...)
			}
			return true
		})
	}
	return diags
}

type heldSet struct {
	exprs map[string]token.Pos // printed lock receiver → Lock() position
}

func newHeldSet() *heldSet { return &heldSet{exprs: make(map[string]token.Pos)} }

func (h *heldSet) clone() *heldSet {
	c := newHeldSet()
	for k, v := range h.exprs {
		c.exprs[k] = v
	}
	return c
}

// lockScan scans held-lock regions. classify decides which calls count as
// blocking under a held lock and renders their name; format renders the
// diagnostic. locksafe uses the syntactic stdlib classifier; lockblock
// (lockblock.go) plugs in the cross-package facts classifier.
type lockScan struct {
	pass     *Pass
	classify func(*ast.CallExpr) (string, bool)
	format   func(name, lock string) string
}

// newLockScan builds locksafe's syntactic scanner.
func newLockScan(pass *Pass) *lockScan {
	s := &lockScan{pass: pass}
	s.classify = s.blockingCall
	s.format = func(name, lock string) string {
		return fmt.Sprintf("blocking call %s while holding %s; release the lock before I/O (one slow peer stalls every lock waiter)",
			name, lock)
	}
	return s
}

// block scans a statement list linearly, tracking the held set, and returns
// diagnostics for blocking calls made while any lock is held.
func (s *lockScan) block(b *ast.BlockStmt, held *heldSet) []Diagnostic {
	var diags []Diagnostic
	for _, stmt := range b.List {
		diags = append(diags, s.stmt(stmt, held)...)
	}
	return diags
}

func (s *lockScan) stmt(stmt ast.Stmt, held *heldSet) []Diagnostic {
	switch st := stmt.(type) {
	case *ast.ExprStmt:
		if recv, op, ok := s.lockOp(st.X); ok {
			switch op {
			case "Lock", "RLock":
				held.exprs[recv] = st.Pos()
			case "Unlock", "RUnlock":
				delete(held.exprs, recv)
			}
			return nil
		}
		return s.checkCalls(st.X, held)
	case *ast.DeferStmt:
		if recv, op, ok := s.lockOp(st.Call); ok && (op == "Unlock" || op == "RUnlock") {
			// Deferred release: the lock stays held for the rest of the
			// function, which is fine as long as nothing below blocks. Keep
			// the receiver in the held set.
			_ = recv
			return nil
		}
		return s.checkCalls(st.Call, held)
	case *ast.AssignStmt:
		var diags []Diagnostic
		for _, e := range st.Rhs {
			diags = append(diags, s.checkCalls(e, held)...)
		}
		return diags
	case *ast.ReturnStmt:
		var diags []Diagnostic
		for _, e := range st.Results {
			diags = append(diags, s.checkCalls(e, held)...)
		}
		return diags
	case *ast.IfStmt:
		var diags []Diagnostic
		if st.Init != nil {
			diags = append(diags, s.stmt(st.Init, held)...)
		}
		diags = append(diags, s.checkCalls(st.Cond, held)...)
		diags = append(diags, s.block(st.Body, held.clone())...)
		if st.Else != nil {
			diags = append(diags, s.stmt(st.Else, held.clone())...)
		}
		return diags
	case *ast.BlockStmt:
		return s.block(st, held)
	case *ast.ForStmt:
		var diags []Diagnostic
		if st.Init != nil {
			diags = append(diags, s.stmt(st.Init, held)...)
		}
		diags = append(diags, s.block(st.Body, held.clone())...)
		return diags
	case *ast.RangeStmt:
		return s.block(st.Body, held.clone())
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		var diags []Diagnostic
		ast.Inspect(st, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				diags = append(diags, s.checkCall(call, held)...)
			}
			return true
		})
		return diags
	case *ast.GoStmt:
		return nil // the goroutine does not run under this frame's locks
	default:
		return nil
	}
}

// checkCalls inspects an expression tree for blocking calls, skipping
// nested function literals (they execute later, not under this lock).
func (s *lockScan) checkCalls(e ast.Expr, held *heldSet) []Diagnostic {
	if e == nil || len(held.exprs) == 0 {
		return nil
	}
	var diags []Diagnostic
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			diags = append(diags, s.checkCall(call, held)...)
		}
		return true
	})
	return diags
}

func (s *lockScan) checkCall(call *ast.CallExpr, held *heldSet) []Diagnostic {
	if len(held.exprs) == 0 {
		return nil
	}
	name, blocking := s.classify(call)
	if !blocking {
		return nil
	}
	// One report per call, against the lexicographically first held lock so
	// the diagnostic is deterministic.
	first := ""
	for recv := range held.exprs {
		if first == "" || recv < first {
			first = recv
		}
	}
	return []Diagnostic{{
		Pos:     call.Pos(),
		Message: s.format(name, first),
	}}
}

// blockingCall classifies calls into blocking I/O: package functions and
// methods from net, net/http, os, os/exec, plus time.Sleep.
func (s *lockScan) blockingCall(call *ast.CallExpr) (string, bool) {
	obj := calleeObj(s.pass.Info, call)
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	pkg := obj.Pkg().Path()
	if pkg == "time" && obj.Name() == "Sleep" {
		return "time.Sleep", true
	}
	if !blockingPkgs[pkg] {
		return "", false
	}
	return pkg + "." + obj.Name(), true
}

// lockOp matches <expr>.Lock / RLock / Unlock / RUnlock calls on
// sync.Mutex/RWMutex (directly or promoted through embedding) and returns
// the printed receiver expression and the operation name.
func (s *lockScan) lockOp(e ast.Expr) (recv, op string, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	obj := s.pass.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", "", false
	}
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, s.pass.Fset, sel.X); err != nil {
		return "", "", false
	}
	return buf.String(), sel.Sel.Name, true
}
