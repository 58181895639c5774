package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/types"
	"maps"
)

// locksafe machine-checks lock discipline: a sync.Mutex/RWMutex held
// across a call that can block turns one slow peer, disk or worker into a
// stall of every waiter on the lock. A call blocks when the one classifier
// in facts.go says so — directly (stdlibBlockClass: network, io plumbing,
// file I/O, subprocesses, sleeps, WaitGroup joins) or through a
// module-internal callee whose cross-package fact says it blocks, however
// many packages away (a WaitGroup join inside the parallel codec, a channel
// handoff inside the counting core). sync.Cond.Wait is masked out: it
// releases the lock it waits under, and the analyzer cannot tell which lock
// a cond guards. Channel operations written inline are not calls and are
// not checked. With facts disabled (Pass.Facts == nil) only the direct
// stdlib calls are reported. The cache's single-flight path deliberately
// drops the lock before computing; this analyzer keeps it that way.
// Lock-bearing structs copied by value are go vet's copylocks' to report.
//
// Kept by the ledger (DESIGN.md §5): rows LS3, LS4, LB1, LB2, LS5, LS6 —
// nothing else caught them.

// LockSafe flags mutexes held across blocking calls.
var LockSafe = &Analyzer{
	Name: "locksafe",
	Doc:  "flags sync.Mutex/RWMutex held across calls that block, directly or per the cross-package facts",
	Run:  runLockSafe,
}

// lockBlockMask is every blocking class but BlockCond.
const lockBlockMask = ^BlockCond

func runLockSafe(pass *Pass) []Diagnostic {
	s := &lockScan{pass: pass}
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
				diags = append(diags, s.block(body, heldSet{})...)
			}
			return true
		})
	}
	return diags
}

// heldSet holds the printed receivers of the locks held at a point.
type heldSet map[string]bool

// lockScan scans held-lock regions of one package.
type lockScan struct {
	pass *Pass
}

// block scans a statement list linearly, tracking the held set, and returns
// diagnostics for blocking calls made while any lock is held.
func (s *lockScan) block(b *ast.BlockStmt, held heldSet) []Diagnostic {
	var diags []Diagnostic
	for _, stmt := range b.List {
		diags = append(diags, s.stmt(stmt, held)...)
	}
	return diags
}

func (s *lockScan) stmt(stmt ast.Stmt, held heldSet) []Diagnostic {
	switch st := stmt.(type) {
	case *ast.ExprStmt:
		if recv, op, ok := s.lockOp(st.X); ok {
			switch op {
			case "Lock", "RLock":
				held[recv] = true
			case "Unlock", "RUnlock":
				delete(held, recv)
			}
			return nil
		}
		return s.checkCalls(held, st.X)
	case *ast.DeferStmt:
		// A deferred release keeps the lock held for the rest of the
		// function, so the receiver stays in the held set.
		if _, op, ok := s.lockOp(st.Call); ok && (op == "Unlock" || op == "RUnlock") {
			return nil
		}
		return s.checkCalls(held, st.Call)
	case *ast.AssignStmt:
		return s.checkCalls(held, st.Rhs...)
	case *ast.ReturnStmt:
		return s.checkCalls(held, st.Results...)
	case *ast.IfStmt:
		var diags []Diagnostic
		if st.Init != nil {
			diags = append(diags, s.stmt(st.Init, held)...)
		}
		diags = append(diags, s.checkCalls(held, st.Cond)...)
		diags = append(diags, s.block(st.Body, maps.Clone(held))...)
		if st.Else != nil {
			diags = append(diags, s.stmt(st.Else, maps.Clone(held))...)
		}
		return diags
	case *ast.BlockStmt:
		return s.block(st, held)
	case *ast.ForStmt:
		var diags []Diagnostic
		if st.Init != nil {
			diags = append(diags, s.stmt(st.Init, held)...)
		}
		diags = append(diags, s.block(st.Body, maps.Clone(held))...)
		return diags
	case *ast.RangeStmt:
		return s.block(st.Body, maps.Clone(held))
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
	default:
		// Including go statements: the goroutine does not run under this
		// frame's locks.
		return nil
	}
}

// checkCalls inspects expression trees for blocking calls, skipping nested
// function literals (they execute later, not under this lock).
func (s *lockScan) checkCalls(held heldSet, exprs ...ast.Expr) []Diagnostic {
	if len(held) == 0 {
		return nil
	}
	var diags []Diagnostic
	for _, e := range exprs {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				diags = append(diags, s.checkCall(call, held)...)
			}
			return true
		})
	}
	return diags
}

func (s *lockScan) checkCall(call *ast.CallExpr, held heldSet) []Diagnostic {
	if len(held) == 0 {
		return nil
	}
	what := s.blockingCall(call)
	if what == "" {
		return nil
	}
	// One report per call, against the lexicographically first held lock so
	// the diagnostic is deterministic.
	first := ""
	for recv := range held {
		if first == "" || recv < first {
			first = recv
		}
	}
	return []Diagnostic{{
		Pos: call.Pos(),
		Message: fmt.Sprintf("%s while holding %s; release the lock first (one slow call stalls every lock waiter)",
			what, first),
	}}
}

// blockingCall describes a call that blocks in a lockBlockMask class, or
// returns "".
func (s *lockScan) blockingCall(call *ast.CallExpr) string {
	obj, _ := calleeObj(s.pass.Info, call).(*types.Func)
	if obj == nil {
		return ""
	}
	if class, cause := stdlibBlockClass(obj); class != 0 {
		if class&lockBlockMask == 0 {
			return ""
		}
		return "blocking call " + cause
	}
	fact := s.pass.Facts.Lookup(obj)
	if fact == nil || fact.Blocks&lockBlockMask == 0 {
		return ""
	}
	blocks := fact.Blocks & lockBlockMask
	return fmt.Sprintf("call to %s (blocks: %s; %s)", fact.Key, blocks, fact.Cause(blocks))
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
