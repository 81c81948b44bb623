package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Lockcheck enforces the live plane's shard-lock discipline: no blocking
// operation — channel send/receive, select without default, net.Conn I/O,
// Wait*/Flush calls, time.Sleep — may be reached while a shard or engine
// mutex is held, and two mutex classes must never be acquired in both
// orders (the classic deadlock shape). TryLock acquisitions are exempt
// from the ordering graph: an acquisition that backs off on contention
// cannot deadlock by construction. An order whose two halves never meet in
// one function (shard lock in the caller, accumulator lock in the callee)
// is declared with `//joinopt:lockorder <first> <second>` and enforced the
// same way.
//
// The analysis is intra-procedural and source-ordered: Lock/Unlock pairs
// are tracked through the statement list, `defer mu.Unlock()` holds to the
// end of the function, and branch bodies inherit (but do not leak) the
// held set. Calls into other functions are not followed — a helper that
// blocks must be flagged where *it* holds the lock.
var Lockcheck = &Analyzer{
	Name: "lockcheck",
	Doc:  "reports blocking operations reached under a mutex and inconsistent lock-acquisition order",
	Run:  runLockcheck,
}

type heldLock struct {
	class string
	pos   token.Pos
}

type lockEdge struct{ first, second string }

type lockScan struct {
	pass     *Pass
	info     *types.Info
	edges    map[lockEdge]token.Pos // first held while second acquired
	declared map[lockEdge]token.Pos // //joinopt:lockorder declarations
}

func runLockcheck(pass *Pass) error {
	s := &lockScan{pass: pass, info: pass.TypesInfo,
		edges: map[lockEdge]token.Pos{}, declared: map[lockEdge]token.Pos{}}
	for _, o := range pass.Markers().LockOrders() {
		s.declared[lockEdge{o.First, o.Second}] = o.Pos
	}
	funcDecls(pass, func(decl *ast.FuncDecl, _ *types.Func) {
		s.scanStmts(decl.Body.List, map[string]heldLock{})
	})
	// Closure bodies run as their own frames: scan each one lock-free.
	// The statement scan above never descends into a FuncLit, so this
	// visits every closure exactly once (including nested ones).
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				s.scanStmts(lit.Body.List, map[string]heldLock{})
			}
			return true
		})
	}
	// Ordering report: an (A,B) edge with a (B,A) edge anywhere in the
	// package is a potential deadlock; report each inverted pair once, at
	// the lexicographically later acquisition.
	for e, pos := range s.edges {
		if _, ok := s.declared[e]; ok {
			continue // the declared order; its inversions are reported at their own site
		}
		rev := lockEdge{e.second, e.first}
		if dpos, ok := s.declared[rev]; ok {
			s.pass.Report(pos,
				"lock order inverted: %s acquired while holding %s, against the order declared at %s",
				e.second, e.first, s.pass.Fset.Position(dpos))
			continue
		}
		if rpos, ok := s.edges[rev]; ok && e.first < e.second {
			s.pass.Report(pos,
				"lock order inverted: %s acquired while holding %s here, but the opposite order is taken at %s",
				e.second, e.first, s.pass.Fset.Position(rpos))
		}
	}
	return nil
}

func copyHeld(held map[string]heldLock) map[string]heldLock {
	c := make(map[string]heldLock, len(held))
	for k, v := range held {
		c[k] = v
	}
	return c
}

func (s *lockScan) scanStmts(stmts []ast.Stmt, held map[string]heldLock) {
	for _, stmt := range stmts {
		s.scanStmt(stmt, held)
	}
}

func (s *lockScan) scanStmt(stmt ast.Stmt, held map[string]heldLock) {
	switch st := stmt.(type) {
	case *ast.ExprStmt:
		if s.handleLockOp(st.X, held) {
			return
		}
		s.checkBlocking(st.X, held)
	case *ast.DeferStmt:
		// defer mu.Unlock() does not release until return: the lock stays
		// held for the rest of the scan, which is exactly right. Deferred
		// closures run at return with whatever is then held — too
		// imprecise to model, so they are scanned lock-free.
		if key, _, op := s.lockCall(st.Call); key != "" && strings.HasSuffix(op, "Unlock") {
			return
		}
		s.checkBlockingInCall(st.Call, held)
	case *ast.GoStmt:
		// The goroutine body runs without this frame's locks.
		s.checkBlockingInCall(st.Call, held)
	case *ast.AssignStmt:
		// `ok := mu.TryLock()` — deliberately untracked (see Doc).
		for _, rhs := range st.Rhs {
			s.checkBlocking(rhs, held)
		}
		for _, lhs := range st.Lhs {
			s.checkBlocking(lhs, held)
		}
	case *ast.SendStmt:
		if len(held) > 0 {
			s.reportBlocked(st.Pos(), "channel send", held)
		}
		s.checkBlocking(st.Chan, held)
		s.checkBlocking(st.Value, held)
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			s.checkBlocking(r, held)
		}
	case *ast.IfStmt:
		inner := copyHeld(held)
		if st.Init != nil {
			s.scanStmt(st.Init, inner)
		}
		s.checkBlocking(st.Cond, inner)
		s.scanStmts(st.Body.List, copyHeld(inner))
		if st.Else != nil {
			s.scanStmt(st.Else, copyHeld(inner))
		}
	case *ast.ForStmt:
		inner := copyHeld(held)
		if st.Init != nil {
			s.scanStmt(st.Init, inner)
		}
		if st.Cond != nil {
			s.checkBlocking(st.Cond, inner)
		}
		s.scanStmts(st.Body.List, copyHeld(inner))
	case *ast.RangeStmt:
		inner := copyHeld(held)
		if len(inner) > 0 {
			if t := s.info.TypeOf(st.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					s.reportBlocked(st.Pos(), "range over channel", inner)
				}
			}
		}
		s.checkBlocking(st.X, inner)
		s.scanStmts(st.Body.List, copyHeld(inner))
	case *ast.SwitchStmt:
		inner := copyHeld(held)
		if st.Init != nil {
			s.scanStmt(st.Init, inner)
		}
		if st.Tag != nil {
			s.checkBlocking(st.Tag, inner)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					s.checkBlocking(e, inner)
				}
				s.scanStmts(cc.Body, copyHeld(inner))
			}
		}
	case *ast.TypeSwitchStmt:
		inner := copyHeld(held)
		if st.Init != nil {
			s.scanStmt(st.Init, inner)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.scanStmts(cc.Body, copyHeld(inner))
			}
		}
	case *ast.SelectStmt:
		if len(held) > 0 && !selectHasDefault(st) {
			s.reportBlocked(st.Pos(), "blocking select", held)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				s.scanStmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.BlockStmt:
		s.scanStmts(st.List, copyHeld(held))
	case *ast.LabeledStmt:
		s.scanStmt(st.Stmt, held)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						s.checkBlocking(v, held)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		s.checkBlocking(st.X, held)
	}
}

// handleLockOp updates held if expr is a Lock/RLock/Unlock/RUnlock call on
// a sync mutex, returning true if it was one. TryLock is recognized and
// deliberately ignored (no held entry, no ordering edge).
func (s *lockScan) handleLockOp(expr ast.Expr, held map[string]heldLock) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return false
	}
	key, class, op := s.lockCall(call)
	if key == "" {
		return false
	}
	switch op {
	case "Lock", "RLock":
		if prev, already := held[key]; already {
			s.pass.Report(call.Pos(),
				"%s of %s while the same lock is already held (acquired at %s)",
				op, class, s.pass.Fset.Position(prev.pos))
		}
		for _, h := range held {
			if h.class == class {
				continue // re-entry on the same class already reported above when same expr
			}
			s.edges[lockEdge{h.class, class}] = call.Pos()
		}
		held[key] = heldLock{class: class, pos: call.Pos()}
	case "Unlock", "RUnlock":
		delete(held, key)
	case "TryLock", "TryRLock":
		// untracked by design
	}
	return true
}

// lockCall resolves a call to a sync.Mutex/RWMutex method, returning the
// mutex expression's path key, its ordering class and the method name.
func (s *lockScan) lockCall(call *ast.CallExpr) (key, class, op string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", "", ""
	}
	fn, ok := s.info.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", ""
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", "", ""
	}
	rt := namedTypeOf(recv.Type())
	if rt == nil || (rt.Obj().Name() != "Mutex" && rt.Obj().Name() != "RWMutex") {
		return "", "", ""
	}
	k, _, _, ok := pathOf(s.info, sel.X)
	if !ok {
		// A mutex reached through something unnameable (map entry, call
		// result): still track by class with a synthetic key.
		k = "expr@" + s.pass.Fset.Position(sel.X.Pos()).String()
	}
	return k, lockClass(s.info, s.pass.Pkg, sel.X), sel.Sel.Name
}

// checkBlocking reports blocking operations inside expr while locks are
// held. Closure bodies are skipped: they execute elsewhere.
func (s *lockScan) checkBlocking(expr ast.Expr, held map[string]heldLock) {
	if expr == nil || len(held) == 0 {
		return
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				s.reportBlocked(n.Pos(), "channel receive", held)
			}
		case *ast.CallExpr:
			if kind := s.blockingCall(n); kind != "" {
				s.reportBlocked(n.Pos(), kind, held)
			}
		}
		return true
	})
}

func (s *lockScan) checkBlockingInCall(call *ast.CallExpr, held map[string]heldLock) {
	for _, a := range call.Args {
		s.checkBlocking(a, held)
	}
}

// blockingCall classifies a call as a known blocking operation, or "".
func (s *lockScan) blockingCall(call *ast.CallExpr) string {
	fn := calleeFunc(s.info, call)
	if fn == nil {
		return ""
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "time" && fn.Name() == "Sleep" {
		return "time.Sleep"
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	switch fn.Name() {
	case "Wait", "WaitErr", "WaitCtx":
		return fn.Name() + " call"
	case "Flush":
		return "Flush call"
	case "Read", "Write":
		if s.implementsNetConn(sig.Recv().Type()) {
			return "net.Conn " + fn.Name()
		}
	}
	return ""
}

// implementsNetConn reports whether t implements net.Conn, resolved
// through the analyzed package's imports (skipped when net is not
// imported).
func (s *lockScan) implementsNetConn(t types.Type) bool {
	for _, imp := range s.pass.Pkg.Imports() {
		if imp.Path() != "net" {
			continue
		}
		obj, ok := imp.Scope().Lookup("Conn").(*types.TypeName)
		if !ok {
			return false
		}
		iface, ok := obj.Type().Underlying().(*types.Interface)
		if !ok {
			return false
		}
		return types.Implements(t, iface)
	}
	return false
}

func (s *lockScan) reportBlocked(pos token.Pos, kind string, held map[string]heldLock) {
	// Name one held lock deterministically (the lexicographically first
	// class) so the message is stable.
	var first heldLock
	for _, h := range held {
		if first.class == "" || h.class < first.class {
			first = h
		}
	}
	s.pass.Report(pos, "%s while holding %s (locked at %s)",
		kind, first.class, s.pass.Fset.Position(first.pos))
}

func selectHasDefault(st *ast.SelectStmt) bool {
	for _, c := range st.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}
