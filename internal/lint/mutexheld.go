package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MutexHeld guards the engine's critical sections. The engine,
// campaign and prov layers all serialize on small mutexes while
// thousands of goroutine activations run; a blocking operation inside
// a held region turns a nanosecond critical section into a convoy (or
// a deadlock when the blocked operation needs the same lock), and a
// lock value copied by value silently forks the lock. Findings:
//
//   - error: a sync.Mutex/RWMutex received, copied or ranged by value;
//   - error: a Lock()/RLock() with no matching Unlock on any path in
//     the function (and no deferred unlock);
//   - warn: a blocking operation — channel send/receive, select
//     without default, range over a channel, time.Sleep,
//     sync.WaitGroup.Wait, or re-locking the same mutex — while the
//     lock is held. sync.Cond.Wait is exempt: it unlocks atomically
//     and must be called with the lock held.
var MutexHeld = &Analyzer{
	Name:     "mutexheld",
	Doc:      "flags locks copied by value, Lock without Unlock, and blocking calls in held critical sections",
	Severity: Warn,
	Run:      runMutexHeld,
}

func runMutexHeld(pass *Pass) {
	pass.Inspect(func(n ast.Node, stack []ast.Node) {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Recv != nil {
				for _, f := range n.Recv.List {
					checkByValue(pass, f, "receiver")
				}
			}
			checkParamsByValue(pass, n.Type)
		case *ast.FuncLit:
			checkParamsByValue(pass, n.Type)
		case *ast.RangeStmt:
			if v, ok := n.Value.(*ast.Ident); ok && v.Name != "_" {
				if t := pass.TypeOf(v); t != nil && !isPointer(t) && containsLocker(t) {
					pass.ReportSevf(Error, v.Pos(),
						"range copies lock: %s contains a sync mutex; range over indices or pointers instead", t)
				}
			}
		case *ast.AssignStmt:
			checkAssignCopiesLock(pass, n)
		case *ast.BlockStmt:
			checkLockRegions(pass, n.List, enclosingFunc(stack))
		case *ast.CaseClause:
			checkLockRegions(pass, n.Body, enclosingFunc(stack))
		case *ast.CommClause:
			checkLockRegions(pass, n.Body, enclosingFunc(stack))
		}
	})
}

func isPointer(t types.Type) bool {
	_, ok := t.(*types.Pointer)
	return ok
}

func checkParamsByValue(pass *Pass, ft *ast.FuncType) {
	if ft.Params == nil {
		return
	}
	for _, f := range ft.Params.List {
		checkByValue(pass, f, "parameter")
	}
}

func checkByValue(pass *Pass, field *ast.Field, what string) {
	t := pass.TypeOf(field.Type)
	if t == nil || isPointer(t) || !containsLocker(t) {
		return
	}
	pass.ReportSevf(Error, field.Pos(),
		"%s passes lock by value: %s contains a sync mutex; use a pointer", what, t)
}

// checkAssignCopiesLock flags x := y / x = *p where the copied value
// carries a mutex. Composite literals and calls construct fresh
// values and are fine.
func checkAssignCopiesLock(pass *Pass, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, rhs := range as.Rhs {
		switch ast.Unparen(rhs).(type) {
		case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
		default:
			continue
		}
		if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
			continue
		}
		t := pass.TypeOf(rhs)
		if t == nil || isPointer(t) || !containsLocker(t) {
			continue
		}
		pass.ReportSevf(Error, as.Pos(),
			"assignment copies lock value: %s contains a sync mutex", t)
	}
}

func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

// lockOp describes one mutex method call site.
type lockOp struct {
	key     string // receiver expression, e.g. "e.mu"
	read    bool   // RLock/RUnlock
	acquire bool   // Lock/RLock vs Unlock/RUnlock
}

// mutexCall decodes a call expression into a lockOp when it is a
// sync.Mutex/RWMutex (un)lock.
func mutexCall(pass *Pass, call *ast.CallExpr) (lockOp, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	var op lockOp
	switch sel.Sel.Name {
	case "Lock":
		op = lockOp{acquire: true}
	case "RLock":
		op = lockOp{acquire: true, read: true}
	case "Unlock":
		op = lockOp{}
	case "RUnlock":
		op = lockOp{read: true}
	default:
		return lockOp{}, false
	}
	if !isSyncLocker(pass.TypeOf(sel.X)) {
		return lockOp{}, false
	}
	op.key = types.ExprString(sel.X)
	return op, true
}

// stmtMutexCall matches `x.Lock()`-shaped expression statements.
func stmtMutexCall(pass *Pass, s ast.Stmt) (lockOp, *ast.CallExpr, bool) {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return lockOp{}, nil, false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return lockOp{}, nil, false
	}
	op, ok := mutexCall(pass, call)
	return op, call, ok
}

// checkLockRegions scans one statement list for Lock...Unlock pairs
// and inspects the held region between them.
func checkLockRegions(pass *Pass, list []ast.Stmt, fn ast.Node) {
	for i, s := range list {
		op, call, ok := stmtMutexCall(pass, s)
		if !ok || !op.acquire {
			continue
		}
		deferred := false
		if i+1 < len(list) {
			if ds, ok := list[i+1].(*ast.DeferStmt); ok {
				if dop, ok := mutexCall(pass, ds.Call); ok && !dop.acquire &&
					dop.key == op.key && dop.read == op.read {
					deferred = true
				}
			}
		}
		region := list[i+1:]
		if !deferred {
			end := -1
			for j := i + 1; j < len(list); j++ {
				if uop, _, ok := stmtMutexCall(pass, list[j]); ok && !uop.acquire &&
					uop.key == op.key && uop.read == op.read {
					end = j
					break
				}
			}
			if end >= 0 {
				region = list[i+1 : end]
			} else if !unlocksSomewhere(pass, fn, op) {
				pass.ReportSevf(Error, call.Pos(),
					"%s.%s with no matching unlock on any path in this function", op.key, lockName(op))
				continue
			}
		}
		checkHeldRegion(pass, region, op)
	}
}

func lockName(op lockOp) string {
	if op.read {
		return "RLock()"
	}
	return "Lock()"
}

// unlocksSomewhere reports whether the function releases op anywhere
// (deferred or conditional); used to avoid false "no unlock" reports
// when the release lives on another path.
func unlocksSomewhere(pass *Pass, fn ast.Node, op lockOp) bool {
	if fn == nil {
		return false
	}
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if uop, ok := mutexCall(pass, call); ok && !uop.acquire &&
				uop.key == op.key && uop.read == op.read {
				found = true
			}
		}
		return true
	})
	return found
}

// checkHeldRegion flags blocking operations between a lock and its
// release. Function literals inside the region run later (or on other
// goroutines) and are skipped.
func checkHeldRegion(pass *Pass, region []ast.Stmt, op lockOp) {
	for _, s := range region {
		ast.Inspect(s, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.SendStmt:
				pass.Reportf(n.Pos(), "channel send while %s is held; shrink the critical section", op.key)
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					pass.Reportf(n.Pos(), "channel receive while %s is held; shrink the critical section", op.key)
				}
			case *ast.SelectStmt:
				for _, c := range n.Body.List {
					if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
						return true // has default: non-blocking
					}
				}
				pass.Reportf(n.Pos(), "blocking select while %s is held; shrink the critical section", op.key)
			case *ast.RangeStmt:
				if t := pass.TypeOf(n.X); t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						pass.Reportf(n.Pos(), "range over channel while %s is held; shrink the critical section", op.key)
					}
				}
			case *ast.CallExpr:
				checkBlockingCall(pass, n, op)
			}
			return true
		})
	}
}

func checkBlockingCall(pass *Pass, call *ast.CallExpr, op lockOp) {
	if cop, ok := mutexCall(pass, call); ok && cop.acquire && cop.key == op.key {
		pass.Reportf(call.Pos(), "%s re-locked while already held: self-deadlock", op.key)
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := pass.Info.Uses[id].(*types.PkgName); ok &&
			pn.Imported().Path() == "time" && sel.Sel.Name == "Sleep" {
			pass.Reportf(call.Pos(), "time.Sleep while %s is held; sleep outside the critical section", op.key)
			return
		}
	}
	if sel.Sel.Name == "Wait" {
		if path, name, ok := namedFrom(pass.TypeOf(sel.X)); ok &&
			path == "sync" && name == "WaitGroup" {
			pass.Reportf(call.Pos(), "WaitGroup.Wait while %s is held; waiters that need the lock deadlock", op.key)
		}
	}
}
