package lint

// Phase 1 of the two-phase multichecker: fact computation. Every loaded
// package is walked once and each function declaration is summarized into a
// FuncFact — does it block (and on what: network, channels, sync waits,
// sleeps, subprocesses), does it spawn goroutines, does it accept or
// forward a context.Context. Facts are keyed by the function's canonical
// name (import path + receiver + name), so phase-2 analyzers (goroleak,
// ctxflow, lockblock) can reason across package boundaries: a mutex in
// internal/server held across a call into internal/core is visible because
// core's facts say the callee blocks.
//
// Blocking is propagated over the module-internal call graph to a fixed
// point: a function that calls a blocking function blocks, transitively,
// with the first cause recorded for diagnostics. Calls through interfaces
// and function-typed values do not propagate (no static callee); the
// analyzers are linters, not verifiers, and unresolved calls are assumed
// non-blocking.
//
// Function literals are folded into the enclosing declaration's facts only
// when they run within the declaration's own activation — immediately
// invoked or deferred. Literals that are go-spawned, returned, assigned, or
// passed as callbacks execute on someone else's clock, so their blocking
// does not make the enclosing function blocking.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// BlockClass is a bit set categorizing why a function can block.
type BlockClass uint16

const (
	// BlockNet covers net dials/listens/conn I/O, net/http client and
	// server calls, and io plumbing (Copy, ReadAll, ReadFull) that blocks
	// for as long as its reader does.
	BlockNet BlockClass = 1 << iota
	// BlockChan covers channel sends, receives, ranges, and selects
	// without a default clause.
	BlockChan
	// BlockSync covers sync.WaitGroup.Wait and sync.Cond.Wait.
	BlockSync
	// BlockSleep covers time.Sleep.
	BlockSleep
	// BlockExec covers os/exec Cmd.Run/Wait/Output/CombinedOutput.
	BlockExec
)

// String renders the set as "net|chan|...", or "none".
func (c BlockClass) String() string {
	if c == 0 {
		return "none"
	}
	names := []struct {
		bit  BlockClass
		name string
	}{
		{BlockNet, "net"}, {BlockChan, "chan"}, {BlockSync, "sync"},
		{BlockSleep, "sleep"}, {BlockExec, "exec"},
	}
	var parts []string
	for _, n := range names {
		if c&n.bit != 0 {
			parts = append(parts, n.name)
		}
	}
	return strings.Join(parts, "|")
}

// FuncFact is one function's phase-1 summary.
type FuncFact struct {
	// Key is the canonical function name: "pkg.Name" for package-level
	// functions, "pkg.(Recv).Name" or "pkg.(*Recv).Name" for methods.
	Key string
	// Blocks is the transitive blocking classification.
	Blocks BlockClass
	// BlockedBy is the first recorded cause, for diagnostics: a direct op
	// ("net/http.Do") or a call chain ("calls flowcube/internal/core.ApplyDelta").
	BlockedBy string
	// Spawns reports whether the function contains a go statement.
	Spawns bool
	// AcceptsCtx reports a context.Context parameter.
	AcceptsCtx bool
	// ForwardsCtx reports passing a context.Context to some callee.
	ForwardsCtx bool
	// DerivesCtx reports calling context.WithCancel/WithTimeout/
	// WithDeadline/WithoutCancel directly.
	DerivesCtx bool
	// HasHTTPRequest reports a *net/http.Request parameter (whose Context
	// method makes a separate ctx parameter redundant).
	HasHTTPRequest bool
	// CtxWrapper reports the sanctioned context-less convenience shape: a
	// single-statement body forwarding to a sibling whose name contains
	// "Context" (func Build(...) { return BuildContext(context.Background(), ...) }).
	CtxWrapper bool
	// Calls lists module-internal callees by fact key, sorted and deduped.
	Calls []string

	// directBlocks is the pre-propagation classification.
	directBlocks BlockClass
}

// FactTable indexes every loaded function's facts by canonical key.
type FactTable struct {
	funcs map[string]*FuncFact
}

// Lookup resolves a called function object to its fact, or nil when the
// callee is outside the loaded package set (stdlib, interface methods,
// function-typed values).
func (t *FactTable) Lookup(obj *types.Func) *FuncFact {
	if t == nil || obj == nil {
		return nil
	}
	return t.funcs[FactKey(obj)]
}

// Export returns every fact sorted by key — the serialized form behind
// flowlint -facts and the determinism tests.
func (t *FactTable) Export() []FuncFact {
	if t == nil {
		return nil
	}
	keys := make([]string, 0, len(t.funcs))
	for k := range t.funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]FuncFact, len(keys))
	for i, k := range keys {
		out[i] = *t.funcs[k]
	}
	return out
}

// FactKey renders a function object's canonical key: "pkg.Name" or
// "pkg.(Recv).Name" / "pkg.(*Recv).Name". Objects without a package (error
// builtins and the like) key to "".
func FactKey(obj *types.Func) string {
	pkg := obj.Pkg()
	if pkg == nil {
		return ""
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return pkg.Path() + "." + obj.Name()
	}
	recv := sig.Recv()
	if recv == nil {
		return pkg.Path() + "." + obj.Name()
	}
	t := recv.Type()
	star := ""
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
		star = "*"
	}
	named := namedOf(t)
	if named == nil {
		return ""
	}
	return pkg.Path() + ".(" + star + named.Obj().Name() + ")." + obj.Name()
}

// ComputeFacts runs phase 1 over every loaded package and propagates
// blocking to a fixed point. Call edges are recorded only between loaded
// packages, so analyses scoped to a package subset degrade gracefully to
// that subset's facts.
func ComputeFacts(pkgs []*Package) *FactTable {
	t := &FactTable{funcs: make(map[string]*FuncFact)}
	loaded := make(map[string]bool, len(pkgs))
	for _, pkg := range pkgs {
		loaded[pkg.PkgPath] = true
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, _ := pkg.Info.Defs[fn.Name].(*types.Func)
				if obj == nil {
					continue
				}
				key := FactKey(obj)
				if key == "" {
					continue
				}
				t.funcs[key] = computeFuncFact(pkg, fn, key, loaded)
			}
		}
	}
	t.propagate()
	return t
}

// propagate closes Blocks over module-internal call edges. Iteration is in
// sorted key order every round, so BlockedBy chains are deterministic.
func (t *FactTable) propagate() {
	keys := make([]string, 0, len(t.funcs))
	for k := range t.funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for changed := true; changed; {
		changed = false
		for _, k := range keys {
			f := t.funcs[k]
			for _, calleeKey := range f.Calls {
				callee := t.funcs[calleeKey]
				if callee == nil {
					continue
				}
				if add := callee.Blocks &^ f.Blocks; add != 0 {
					f.Blocks |= add
					if f.BlockedBy == "" {
						f.BlockedBy = "calls " + calleeKey
					}
					changed = true
				}
			}
		}
	}
}

// factWalker accumulates one declaration's facts.
type factWalker struct {
	pkg    *Package
	fact   *FuncFact
	loaded map[string]bool
}

func computeFuncFact(pkg *Package, fn *ast.FuncDecl, key string, loaded map[string]bool) *FuncFact {
	fact := &FuncFact{Key: key}
	if fn.Type.Params != nil {
		for _, p := range fn.Type.Params.List {
			pt := pkg.Info.TypeOf(p.Type)
			if isContextType(pt) {
				fact.AcceptsCtx = true
			}
			if isHTTPRequestPtr(pt) {
				fact.HasHTTPRequest = true
			}
		}
	}
	w := &factWalker{pkg: pkg, fact: fact, loaded: loaded}
	if fn.Body != nil {
		w.walk(fn.Body, true)
		fact.CtxWrapper = isCtxWrapper(pkg, fn)
	}
	sort.Strings(fact.Calls)
	fact.Calls = dedupSorted(fact.Calls)
	fact.Blocks = fact.directBlocks
	return fact
}

func dedupSorted(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// isCtxWrapper recognizes the sanctioned context-less convenience wrapper:
// a body that is exactly one statement forwarding to a context-carrying
// callee — one whose name contains "Context" (Load → LoadContext), or one
// whose first parameter is a context.Context. The forwarding call may sit
// under an adapter (a legacy return shape wrapping the new entry point), so
// every call within the single statement is considered.
func isCtxWrapper(pkg *Package, fn *ast.FuncDecl) bool {
	if fn.Body == nil || len(fn.Body.List) != 1 {
		return false
	}
	switch fn.Body.List[0].(type) {
	case *ast.ReturnStmt, *ast.ExprStmt:
	default:
		return false
	}
	wrapper := false
	ast.Inspect(fn.Body.List[0], func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := calleeObj(pkg.Info, call)
		if obj == nil {
			return true
		}
		if strings.Contains(obj.Name(), "Context") || firstParamIsCtx(obj) {
			wrapper = true
		}
		return true
	})
	return wrapper
}

// firstParamIsCtx reports whether obj is a function whose first parameter
// is a context.Context.
func firstParamIsCtx(obj types.Object) bool {
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return false
	}
	named := namedOf(sig.Params().At(0).Type())
	if named == nil {
		return false
	}
	o := named.Obj()
	return o.Pkg() != nil && o.Pkg().Path() == "context" && o.Name() == "Context"
}

// walk visits one statement/expression tree. counting is true while the
// visited code runs within the declaration's own activation; inside
// go-spawned, returned, assigned, or callback literals it flips to false
// and only nested go statements keep being recorded.
func (w *factWalker) walk(n ast.Node, counting bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			// Reached only when the literal is not in one of the folded
			// positions handled below (immediate invocation, defer).
			w.walk(x.Body, false)
			return false
		case *ast.GoStmt:
			w.fact.Spawns = true
			// The spawned call's arguments are evaluated here; the body runs
			// elsewhere.
			for _, arg := range x.Call.Args {
				w.walk(arg, counting)
			}
			if lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
				w.walk(lit.Body, false)
			} else {
				w.walk(x.Call.Fun, counting)
			}
			return false
		case *ast.DeferStmt:
			// Deferred work runs in this activation at return.
			for _, arg := range x.Call.Args {
				w.walk(arg, counting)
			}
			if lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
				w.walk(lit.Body, counting)
			} else {
				w.classifyCall(x.Call, counting)
				w.walk(x.Call.Fun, counting)
			}
			return false
		case *ast.SendStmt:
			w.block(BlockChan, "channel send", counting)
			return true
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				w.block(BlockChan, "channel receive", counting)
			}
			return true
		case *ast.RangeStmt:
			t := w.pkg.Info.TypeOf(x.X)
			if t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					w.block(BlockChan, "range over channel", counting)
				}
			}
			return true
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				w.block(BlockChan, "select", counting)
			}
			// Case bodies run in this activation either way; comm-clause
			// channel ops are already covered by the select classification
			// (or made non-blocking by the default), so walk bodies only.
			for _, c := range x.Body.List {
				cc, ok := c.(*ast.CommClause)
				if !ok {
					continue
				}
				for _, st := range cc.Body {
					w.walk(st, counting)
				}
			}
			return false
		case *ast.CallExpr:
			if lit, ok := ast.Unparen(x.Fun).(*ast.FuncLit); ok {
				// Immediately invoked literal: runs here, facts fold in.
				for _, arg := range x.Args {
					w.walk(arg, counting)
				}
				w.walk(lit.Body, counting)
				return false
			}
			w.classifyCall(x, counting)
			return true
		}
		return true
	})
}

// block records a direct blocking cause when counting.
func (w *factWalker) block(class BlockClass, cause string, counting bool) {
	if !counting {
		return
	}
	if w.fact.directBlocks&class == 0 && w.fact.BlockedBy == "" {
		w.fact.BlockedBy = cause
	}
	w.fact.directBlocks |= class
}

// classifyCall records the blocking class, context flow, and
// module-internal call edges of one call.
func (w *factWalker) classifyCall(call *ast.CallExpr, counting bool) {
	for _, arg := range call.Args {
		if isContextType(w.pkg.Info.TypeOf(arg)) && counting {
			w.fact.ForwardsCtx = true
		}
	}
	obj := calleeObj(w.pkg.Info, call)
	if obj == nil || obj.Pkg() == nil {
		return
	}
	pkgPath := obj.Pkg().Path()
	name := obj.Name()
	if pkgPath == "context" {
		switch name {
		case "WithCancel", "WithTimeout", "WithDeadline", "WithoutCancel":
			if counting {
				w.fact.DerivesCtx = true
			}
		}
		return
	}
	if class, cause := stdlibBlockClass(pkgPath, name); class != 0 {
		w.block(class, cause, counting)
		return
	}
	if w.loaded[pkgPath] && counting {
		if fobj, ok := obj.(*types.Func); ok {
			if key := FactKey(fobj); key != "" {
				w.fact.Calls = append(w.fact.Calls, key)
			}
		}
	}
}

// stdlibBlockClass classifies a standard-library call as blocking, or 0.
func stdlibBlockClass(pkgPath, name string) (BlockClass, string) {
	switch pkgPath {
	case "net":
		return BlockNet, "net." + name
	case "net/http":
		switch name {
		case "Get", "Head", "Post", "PostForm", "Do", "Serve", "ServeTLS",
			"ListenAndServe", "ListenAndServeTLS", "Shutdown":
			return BlockNet, "net/http." + name
		}
	case "io":
		switch name {
		case "Copy", "CopyN", "CopyBuffer", "ReadAll", "ReadFull", "ReadAtLeast":
			return BlockNet, "io." + name
		}
	case "os/exec":
		switch name {
		case "Run", "Wait", "Output", "CombinedOutput":
			return BlockExec, "os/exec." + name
		}
	case "sync":
		if name == "Wait" {
			return BlockSync, "sync.Wait"
		}
	case "time":
		if name == "Sleep" {
			return BlockSleep, "time.Sleep"
		}
	}
	return 0, ""
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	if t == nil {
		return false
	}
	named := namedOf(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" &&
		(obj.Name() == "Context" || obj.Name() == "CancelFunc")
}

// isHTTPRequestPtr reports whether t is *net/http.Request.
func isHTTPRequestPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named := namedOf(p.Elem())
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "Request"
}

// FormatFacts renders the table deterministically for flowlint -facts: one
// line per function, keyed by import path then function key.
func FormatFacts(t *FactTable) string {
	var b strings.Builder
	for _, f := range t.Export() {
		flags := make([]string, 0, 4)
		if f.Spawns {
			flags = append(flags, "spawns")
		}
		if f.AcceptsCtx {
			flags = append(flags, "ctx")
		}
		if f.ForwardsCtx {
			flags = append(flags, "fwd-ctx")
		}
		fmt.Fprintf(&b, "%s blocks=%s", f.Key, f.Blocks)
		if f.BlockedBy != "" {
			fmt.Fprintf(&b, " (%s)", f.BlockedBy)
		}
		if len(flags) > 0 {
			fmt.Fprintf(&b, " [%s]", strings.Join(flags, ","))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
