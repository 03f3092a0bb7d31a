package lint

import (
	"go/ast"
	"go/types"
)

// The dataflow core closer runs on. A lifeFlow is a statement-level
// abstract interpreter tracking one value's lifecycle through a function
// body: not yet acquired, live, or released. The walk mirrors Go's
// control flow conservatively — a loop body may run zero times, a switch
// without a default may fall through, and a path where the value is live
// dominates any merge — so "released on all paths" holds whenever the
// flow ends with the value not live.
//
// The acquisition statement and the release predicate are parameters,
// and an optional error object enables the standard Go idiom
// `v, err := acquire(); if err != nil { return }` — on the err != nil
// branch the value was never acquired, so the early return is not a
// leak.

type lifeState int

const (
	lifeNotAcquired lifeState = iota
	lifeLive
	lifeReleased
)

func mergeLife(a, b lifeState) lifeState {
	// A path where the value is live dominates: "released on all paths"
	// fails if any path leaves it live.
	if a == lifeLive || b == lifeLive {
		return lifeLive
	}
	if a == lifeReleased || b == lifeReleased {
		return lifeReleased
	}
	return lifeNotAcquired
}

// lifeFlow drives one value's lifecycle analysis.
type lifeFlow struct {
	info *types.Info

	// obj is the tracked variable; acqStmt the statement that makes it
	// live.
	obj     types.Object
	acqStmt ast.Stmt

	// errObj, when non-nil, is the error variable assigned alongside
	// the acquisition; branches on it refine the state (see above).
	errObj types.Object

	// isRelease reports whether a call releases obj (rows.Close(),
	// d.Drain(...), ...).
	isRelease func(call *ast.CallExpr) bool

	// onLeakReturn is invoked for each return statement reached with
	// the value still live.
	onLeakReturn func(ret *ast.ReturnStmt)
}

// run folds the flow over the whole body and reports whether the value
// may still be live when the function falls off the end.
func (fl *lifeFlow) run(body *ast.BlockStmt) (leaksAtEnd bool) {
	st, term := fl.stmts(body.List, lifeNotAcquired)
	return st == lifeLive && !term
}

// stmts folds the flow over a statement list; term reports whether the
// list always terminates (returns/panics) before falling through.
func (fl *lifeFlow) stmts(list []ast.Stmt, st lifeState) (lifeState, bool) {
	for _, s := range list {
		var term bool
		st, term = fl.stmt(s, st)
		if term {
			return st, true
		}
	}
	return st, false
}

func (fl *lifeFlow) stmt(s ast.Stmt, st lifeState) (lifeState, bool) {
	if s == fl.acqStmt {
		return lifeLive, false
	}
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if fl.isRelease(call) && st == lifeLive {
				return lifeReleased, false
			}
			if isPanicOrFatal(call) {
				return st, true
			}
		}
	case *ast.ReturnStmt:
		// `return v.Close()` releases on the way out.
		if st == lifeLive {
			for _, res := range s.Results {
				ast.Inspect(res, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok && fl.isRelease(call) {
						st = lifeReleased
					}
					return st == lifeLive
				})
			}
		}
		if st == lifeLive {
			fl.onLeakReturn(s)
		}
		return st, true
	case *ast.BlockStmt:
		return fl.stmts(s.List, st)
	case *ast.IfStmt:
		thenIn, elseIn := st, st
		if nonNil, ok := fl.errCond(s.Cond); ok && st == lifeLive {
			// err != nil: acquisition failed, the value was never live
			// on this branch. err == nil: the mirror image.
			if nonNil {
				thenIn = lifeNotAcquired
			} else {
				elseIn = lifeNotAcquired
			}
		}
		thenSt, thenTerm := fl.stmts(s.Body.List, thenIn)
		elseSt, elseTerm := elseIn, false
		if s.Else != nil {
			elseSt, elseTerm = fl.stmt(s.Else, elseIn)
		}
		switch {
		case thenTerm && elseTerm:
			return st, true
		case thenTerm:
			return elseSt, false
		case elseTerm:
			return thenSt, false
		default:
			return mergeLife(thenSt, elseSt), false
		}
	case *ast.ForStmt:
		bodySt, _ := fl.stmts(s.Body.List, st)
		return mergeLife(st, bodySt), false
	case *ast.RangeStmt:
		bodySt, _ := fl.stmts(s.Body.List, st)
		return mergeLife(st, bodySt), false
	case *ast.SwitchStmt:
		return fl.caseClauses(s.Body, st, hasDefaultClause(s.Body))
	case *ast.TypeSwitchStmt:
		return fl.caseClauses(s.Body, st, hasDefaultClause(s.Body))
	case *ast.SelectStmt:
		return fl.commClauses(s.Body, st)
	case *ast.LabeledStmt:
		return fl.stmt(s.Stmt, st)
	case *ast.BranchStmt:
		// break/continue/goto leave this statement list; the merged
		// loop/switch state already includes the pre-body state.
		return st, true
	case *ast.AssignStmt:
		// obj reassigned while live would lose the old value; out of
		// scope here — escape analysis already rejected other writes.
	case *ast.DeferStmt, *ast.GoStmt, *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt, *ast.EmptyStmt:
	}
	return st, false
}

// errCond classifies a branch condition as a nil check on the
// acquisition's error variable: `err != nil` (nonNil=true) or
// `err == nil` (nonNil=false).
func (fl *lifeFlow) errCond(cond ast.Expr) (nonNil, ok bool) {
	if fl.errObj == nil {
		return false, false
	}
	bin, isBin := cond.(*ast.BinaryExpr)
	if !isBin {
		return false, false
	}
	op := bin.Op.String()
	if op != "!=" && op != "==" {
		return false, false
	}
	matches := func(e ast.Expr) bool {
		id, isID := e.(*ast.Ident)
		return isID && (fl.info.Uses[id] == fl.errObj || fl.info.Defs[id] == fl.errObj)
	}
	isNil := func(e ast.Expr) bool {
		id, isID := e.(*ast.Ident)
		return isID && id.Name == "nil"
	}
	if (matches(bin.X) && isNil(bin.Y)) || (matches(bin.Y) && isNil(bin.X)) {
		return op == "!=", true
	}
	return false, false
}

func (fl *lifeFlow) caseClauses(body *ast.BlockStmt, st lifeState, hasDefault bool) (lifeState, bool) {
	merged := lifeState(-1)
	allTerm := true
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		cs, cterm := fl.stmts(cc.Body, st)
		if !cterm {
			allTerm = false
			if merged < 0 {
				merged = cs
			} else {
				merged = mergeLife(merged, cs)
			}
		}
	}
	if !hasDefault {
		// No default: the switch may fall through unchanged.
		allTerm = false
		if merged < 0 {
			merged = st
		} else {
			merged = mergeLife(merged, st)
		}
	}
	if allTerm || merged < 0 {
		return st, allTerm
	}
	return merged, false
}

func (fl *lifeFlow) commClauses(body *ast.BlockStmt, st lifeState) (lifeState, bool) {
	merged := lifeState(-1)
	allTerm := true
	for _, c := range body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		cs, cterm := fl.stmts(cc.Body, st)
		if !cterm {
			allTerm = false
			if merged < 0 {
				merged = cs
			} else {
				merged = mergeLife(merged, cs)
			}
		}
	}
	if allTerm || merged < 0 {
		return st, allTerm
	}
	return merged, false
}

// isPanicOrFatal reports calls that never return.
func isPanicOrFatal(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		switch fun.Sel.Name {
		case "Fatal", "Fatalf", "Exit", "Fatalln", "Goexit":
			return true
		}
	}
	return false
}

func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// nodePath returns the chain of nodes from just below root down to the
// direct parent of target, ending with the parent (i.e. last element is
// target's immediate parent). Empty if target isn't under root.
func nodePath(root ast.Node, target ast.Node) []ast.Node {
	var stack, found []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if n == target {
			found = append([]ast.Node(nil), stack...)
			return false
		}
		stack = append(stack, n)
		return true
	})
	return found
}

// enclosingStmt returns the innermost ast.Stmt in a parent chain.
func enclosingStmt(parents []ast.Node) ast.Stmt {
	for i := len(parents) - 1; i >= 0; i-- {
		if s, ok := parents[i].(ast.Stmt); ok {
			return s
		}
	}
	return nil
}

// funcBodies yields every function body in a file — top-level FuncDecls
// and every function literal — each as its own analysis scope. The
// visit function receives the enclosing FuncDecl when there is one (for
// labels) and nil for bodies of function literals spawned outside any
// declaration.
func funcBodies(f *ast.File, visit func(decl *ast.FuncDecl, body *ast.BlockStmt)) {
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		visit(fd, fd.Body)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				visit(fd, lit.Body)
			}
			return true
		})
	}
}
