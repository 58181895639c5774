package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// lockblock is the interprocedural upgrade of locksafe's held-region check:
// a sync.Mutex/RWMutex held across a call into *any* function whose
// cross-package fact says it blocks — not just the syntactic stdlib I/O
// locksafe can see in the same body. This is the analyzer the cluster era
// needs: the dangerous pattern after sharding is a serving-layer lock held
// across a call into internal/incr or internal/core whose blocking lives
// two packages away (a WaitGroup join inside the parallel codec, a channel
// handoff inside the counting core), where no per-file analysis can see it.
//
// Division of labor with locksafe: locksafe reports direct stdlib blocking
// calls (net, net/http, os, os/exec, time.Sleep); lockblock reports only
// module-internal calls classified blocking by the
// fact table, so the two never double-report one call. With facts disabled
// (Pass.Facts == nil) lockblock reports nothing — the acceptance test for
// cross-package facts is exactly that a finding whose blocking call lives
// in another package appears with facts and disappears without them.
//
// Kept by the ledger (DESIGN.md §5): row LB2 — nothing else caught it.

// LockBlock flags mutexes held across module-internal calls that block per
// the cross-package fact table.
var LockBlock = &Analyzer{
	Name: "lockblock",
	Doc:  "flags sync.Mutex/RWMutex held across calls whose cross-package facts say they block",
	Run:  runLockBlock,
}

func runLockBlock(pass *Pass) []Diagnostic {
	if pass.Facts == nil {
		return nil
	}
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
				diags = append(diags, newFactLockScan(pass).block(body, newHeldSet())...)
			}
			return true
		})
	}
	return diags
}

// newFactLockScan builds the held-region scanner with the facts classifier.
func newFactLockScan(pass *Pass) *lockScan {
	s := &lockScan{pass: pass}
	s.classify = func(call *ast.CallExpr) (string, bool) {
		obj := calleeObj(pass.Info, call)
		if obj == nil || obj.Pkg() == nil {
			return "", false
		}
		// Direct stdlib blocking is locksafe's report; never double up.
		if class, _ := stdlibBlockClass(obj.Pkg().Path(), obj.Name()); class != 0 {
			return "", false
		}
		fobj, ok := obj.(*types.Func)
		if !ok {
			return "", false
		}
		fact := pass.Facts.Lookup(fobj)
		if fact == nil || fact.Blocks == 0 {
			return "", false
		}
		return fmt.Sprintf("%s (blocks: %s; %s)", fact.Key, fact.Blocks, fact.BlockedBy), true
	}
	s.format = func(name, lock string) string {
		return fmt.Sprintf("call to %s while holding %s; the callee can block, so every waiter on the lock stalls with it — release the lock first",
			name, lock)
	}
	return s
}
