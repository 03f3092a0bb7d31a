package lint

import (
	"go/ast"
	"go/types"
)

// CloserAnalyzer is the resource half of the interprocedural suite:
// every acquired Close-able resource — a Transport from a Dial, sdb
// Rows from DB.Query, a net.Listener or net.Conn from Listen/Accept, an
// LFM file device, a built System or Daemon — must be provably released
// on all paths of the acquiring function, or provably hand ownership to
// something that releases it.
//
// Ownership transfers (and the check goes quiet) when the value is
// returned, captured by a closure, copied to another variable, passed
// to a callee whose summary takes ownership, or stored into a struct
// one of whose own methods closes that field (Program.ReleasedFields).
// Storing into a module struct that has methods but none that release
// the field is reported at the store — that is how a ClusterSystem
// without a Close method reads to this analyzer. Passing to an unknown
// callee (interface method, standard library) is conservatively owned:
// the analyzer prefers silence to noise.
//
// Release verbs are Close, Drain, and Shutdown — the repo's graceful
// teardown paths count as releases (a drained Daemon holds nothing).
var CloserAnalyzer = &Analyzer{
	Name:      "closer",
	Doc:       "every acquired Close-able resource is released on all paths or provably changes owner",
	RunModule: runCloser,
}

// releaseVerbs are the method names that release a resource.
var releaseVerbs = map[string]bool{"Close": true, "Drain": true, "Shutdown": true}

func runCloser(mp *ModulePass) {
	for _, pkg := range mp.Pkgs {
		for _, f := range pkg.Files {
			funcBodies(f, func(decl *ast.FuncDecl, body *ast.BlockStmt) {
				closerScanScope(mp, pkg, body)
			})
		}
	}
}

// closerScanScope finds resource acquisitions directly in one function
// scope (nested function literals are their own scopes).
func closerScanScope(mp *ModulePass, pkg *Package, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if n != body {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || !mp.Prog.isAcquisition(pkg, call, mp.Pkgs) {
			return true
		}
		checkAcquisition(mp, pkg, body, call)
		return true
	})
}

// isAcquisition reports whether call produces a fresh resource the
// caller becomes responsible for: its result (or first tuple element)
// is a resource type, and the callee is not an accessor returning
// something that already existed.
func (p *Program) isAcquisition(pkg *Package, call *ast.CallExpr, pkgs []*Package) bool {
	tv, ok := pkg.Info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if tuple, ok := t.(*types.Tuple); ok {
		if tuple.Len() == 0 {
			return false
		}
		t = tuple.At(0).Type()
	}
	if !isResourceType(t, pkgs) {
		return false
	}
	// Conversions (Transport(x)) are not acquisitions.
	if _, isConv := pkg.Info.Types[call.Fun]; isConv {
		if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
			return false
		}
	}
	if fi := p.Callee(pkg, call); fi != nil && isAccessor(fi) {
		return false
	}
	return true
}

// isResourceType: pointers to named module types (or stdlib *os.File)
// whose method set has a release verb, and named interface types with
// Close (net.Conn, net.Listener, transport.Transport, io.Closer).
func isResourceType(t types.Type, pkgs []*Package) bool {
	switch tt := t.(type) {
	case *types.Pointer:
		named, ok := tt.Elem().(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			return false
		}
		path := named.Obj().Pkg().Path()
		if !isModulePath(pkgs, path) && !(path == "os" && named.Obj().Name() == "File") {
			return false
		}
		return hasReleaseMethod(t)
	case *types.Named:
		if _, isIface := tt.Underlying().(*types.Interface); isIface {
			return hasReleaseMethod(t)
		}
	}
	return false
}

func hasReleaseMethod(t types.Type) bool {
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		if releaseVerbs[ms.At(i).Obj().Name()] {
			return true
		}
	}
	return false
}

// isAccessor reports whether a function merely hands back something it
// did not create: a single-return body whose result is a selector (or
// address of one) rooted at the receiver or a parameter.
func isAccessor(fi *FuncInfo) bool {
	body := fi.Decl.Body
	if len(body.List) != 1 {
		return false
	}
	ret, ok := body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return false
	}
	e := ret.Results[0]
	if u, isU := e.(*ast.UnaryExpr); isU {
		e = u.X
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	base, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	obj := fi.Pkg.Info.Uses[base]
	if obj == nil {
		return false
	}
	if recv := receiverObj(fi); recv != nil && obj == recv {
		return true
	}
	if v, isVar := obj.(*types.Var); isVar && v.Parent() != nil {
		// Parameter check: declared in the function's scope.
		for i := 0; ; i++ {
			po := paramObj(fi, i)
			if po == nil {
				break
			}
			if po == obj {
				return true
			}
		}
	}
	return false
}

// checkAcquisition classifies one resource-producing call.
func checkAcquisition(mp *ModulePass, pkg *Package, body *ast.BlockStmt, call *ast.CallExpr) {
	parents := nodePath(body, call)
	if len(parents) == 0 {
		return
	}
	parent := parents[len(parents)-1]

	typeStr := resourceTypeString(pkg, call)
	switch p := parent.(type) {
	case *ast.ExprStmt:
		mp.Report(call.Pos(), "result of %s discarded; the %s can never be closed", creationName(call), typeStr)
		return
	case *ast.AssignStmt:
		obj, errObj := acquisitionVars(pkg, p, call)
		if obj == nil {
			return // escapes into a structure, multi-value oddity, or _
		}
		checkResourceVar(mp, pkg, body, p, call, obj, errObj, typeStr)
	case *ast.ValueSpec:
		if len(p.Names) >= 1 {
			if obj := pkg.Info.Defs[p.Names[0]]; obj != nil {
				var errObj types.Object
				if len(p.Names) == 2 {
					errObj = pkg.Info.Defs[p.Names[1]]
				}
				if stmt := enclosingStmt(parents); stmt != nil {
					checkResourceVar(mp, pkg, body, stmt, call, obj, errObj, typeStr)
				}
			}
		}
	default:
		// Return value, call argument, composite element: ownership
		// moves with the value; the consumer's own uses are checked in
		// their scopes.
	}
}

// acquisitionVars extracts the resource variable (and the error
// variable, if assigned alongside) from `v := acquire()` or
// `v, err := acquire()`.
func acquisitionVars(pkg *Package, as *ast.AssignStmt, call *ast.CallExpr) (obj, errObj types.Object) {
	if len(as.Rhs) != 1 || as.Rhs[0] != call {
		return nil, nil
	}
	lookup := func(e ast.Expr) types.Object {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			return nil
		}
		if o := pkg.Info.Defs[id]; o != nil {
			return o
		}
		return pkg.Info.Uses[id]
	}
	switch len(as.Lhs) {
	case 1:
		return lookup(as.Lhs[0]), nil
	case 2:
		return lookup(as.Lhs[0]), lookup(as.Lhs[1])
	}
	return nil, nil
}

// checkResourceVar analyzes a resource held in a local variable:
// classify every use for ownership transfer, then — if the value never
// escapes — require a release on all paths.
func checkResourceVar(mp *ModulePass, pkg *Package, body *ast.BlockStmt, acqStmt ast.Stmt, call *ast.CallExpr, obj, errObj types.Object, typeStr string) {
	owned := false
	deferClosed := false
	var sunkID *ast.Ident
	var sunkKind useKind

	ast.Inspect(body, func(n ast.Node) bool {
		if owned {
			return false
		}
		switch n := n.(type) {
		case *ast.DeferStmt:
			if isReleaseCall(pkg.Info, n.Call, obj) {
				deferClosed = true
				return false
			}
			if fl, ok := n.Call.Fun.(*ast.FuncLit); ok && closureReleases(pkg.Info, fl, obj) {
				deferClosed = true
				return false
			}
		case *ast.FuncLit:
			if objUsedIn(pkg.Info, n, obj) {
				owned = true // closure capture: ownership may transfer
			}
			return false
		case *ast.Ident:
			if pkg.Info.Uses[n] != obj {
				return true
			}
			switch mp.Prog.classifyUse(pkg, body, n, obj) {
			case useOwned:
				owned = true
			case useSunk:
				if sunkID == nil {
					sunkID, sunkKind = n, useSunk
				}
			}
		}
		return true
	})
	if owned || deferClosed {
		return
	}
	if sunkID != nil && sunkKind == useSunk {
		owner, field := sunkFieldLabel(mp.Prog, pkg, body, sunkID)
		mp.Report(sunkID.Pos(), "%s from %s is stored in %s.%s, but no %s method closes that field; the resource leaks with its owner",
			typeStr, creationName(call), owner, field, owner)
		return
	}
	fl := &lifeFlow{
		info:    pkg.Info,
		obj:     obj,
		acqStmt: acqStmt,
		errObj:  errObj,
		isRelease: func(c *ast.CallExpr) bool {
			return isReleaseCall(pkg.Info, c, obj)
		},
		onLeakReturn: func(ret *ast.ReturnStmt) {
			mp.Report(ret.Pos(), "%s from %s (acquired at %s) is not closed on this return path",
				typeStr, creationName(call), pkg.Fset.Position(call.Pos()))
		},
	}
	if fl.run(body) {
		mp.Report(call.Pos(), "%s from %s may reach the end of the function without being closed", typeStr, creationName(call))
	}
}

// sunkFieldLabel recovers the owner type and field name for the sunk
// store's message.
func sunkFieldLabel(prog *Program, pkg *Package, body *ast.BlockStmt, id *ast.Ident) (owner, field string) {
	parents := nodePath(body, id)
	if len(parents) == 0 {
		return "?", "?"
	}
	switch pn := parents[len(parents)-1].(type) {
	case *ast.KeyValueExpr:
		if keyID, ok := pn.Key.(*ast.Ident); ok {
			field = keyID.Name
		}
		for i := len(parents) - 2; i >= 0; i-- {
			if cl, ok := parents[i].(*ast.CompositeLit); ok {
				if tv, ok := pkg.Info.Types[cl]; ok {
					owner = bareTypeName(tv.Type)
				}
				break
			}
		}
	case *ast.AssignStmt:
		for i, rhs := range pn.Rhs {
			if rhs != id || i >= len(pn.Lhs) {
				continue
			}
			if sel, ok := pn.Lhs[i].(*ast.SelectorExpr); ok {
				field = sel.Sel.Name
				if s, ok := pkg.Info.Selections[sel]; ok {
					owner = bareTypeName(s.Recv())
				}
			}
		}
	case *ast.CallExpr:
		// append(x.f, id)
		if len(pn.Args) > 0 {
			if sel, ok := pn.Args[0].(*ast.SelectorExpr); ok {
				field = sel.Sel.Name
				if s, ok := pkg.Info.Selections[sel]; ok {
					owner = bareTypeName(s.Recv())
				}
			}
		}
	}
	if owner == "" {
		owner = "?"
	}
	if field == "" {
		field = "?"
	}
	return owner, field
}

func bareTypeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

// resourceTypeString renders the acquired type for messages ("*sdb.Rows",
// "transport.Transport").
func resourceTypeString(pkg *Package, call *ast.CallExpr) string {
	tv, ok := pkg.Info.Types[call]
	if !ok {
		return "resource"
	}
	t := tv.Type
	if tuple, ok := t.(*types.Tuple); ok && tuple.Len() > 0 {
		t = tuple.At(0).Type()
	}
	prefix := ""
	if ptr, ok := t.(*types.Pointer); ok {
		prefix = "*"
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
		return prefix + named.Obj().Pkg().Name() + "." + named.Obj().Name()
	}
	return "resource"
}

// isReleaseCall reports obj.Close()/Drain(...)/Shutdown(...) on exactly
// the tracked object.
func isReleaseCall(info *types.Info, call *ast.CallExpr, obj types.Object) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !releaseVerbs[sel.Sel.Name] {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && info.Uses[id] == obj
}

func closureReleases(info *types.Info, fl *ast.FuncLit, obj types.Object) bool {
	found := false
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isReleaseCall(info, call, obj) {
			found = true
		}
		return !found
	})
	return found
}

func objUsedIn(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}
