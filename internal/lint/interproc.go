package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The interprocedural layer: one Program per Check run, built from the
// loader's go/types info, shared by every module-level analyzer. It
// indexes all function declarations, resolves static call sites to
// their declarations, groups methods by receiver type, and computes
// small per-function summaries on demand (memoized):
//
//   - paramFate: what a callee does with a pointer argument — returns,
//     closes, or stores it (ownership transfer), stores it into a
//     struct no method ever releases (a leak sink), or merely reads it.
//   - releasedFields: for a named struct type, which fields some method
//     of the type calls Close on (directly or through range/locals) —
//     the "storing into a struct whose own Close releases it is clean"
//     half of closer's ownership rule.
//   - inescapableLoop: whether a function body contains a `for` loop
//     (or bare select) that no path can leave — goexit's leak shape.
//   - lockAcquires: the transitive set of mutex fields a function may
//     lock — lockorder's edge and self-deadlock source.
//
// Everything is resolved statically: interface method calls and
// standard-library callees have no declaration in the module and
// resolve to nil, which every summary treats conservatively (closer
// assumes unknown callees take ownership; lockorder and goexit assume
// they acquire nothing and always return).

// FuncInfo is one declared function or method of the module.
type FuncInfo struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
}

// Program is the module-wide index shared by module-level analyzers.
type Program struct {
	Pkgs []*Package
	Fset *token.FileSet

	funcs   map[*types.Func]*FuncInfo
	methods map[*types.TypeName][]*FuncInfo // named type -> its methods

	fateMemo     map[fateKey]paramFate
	releasedMemo map[*types.TypeName]map[string]bool
	loopMemo     map[*types.Func]int8 // 0 unknown, 1 yes, 2 no
	lockMemo     map[*types.Func]map[*types.Var]bool
}

// BuildProgram indexes the packages' function declarations.
func BuildProgram(pkgs []*Package) *Program {
	p := &Program{
		Pkgs:         pkgs,
		funcs:        make(map[*types.Func]*FuncInfo),
		methods:      make(map[*types.TypeName][]*FuncInfo),
		fateMemo:     make(map[fateKey]paramFate),
		releasedMemo: make(map[*types.TypeName]map[string]bool),
		loopMemo:     make(map[*types.Func]int8),
		lockMemo:     make(map[*types.Func]map[*types.Var]bool),
	}
	for _, pkg := range pkgs {
		if p.Fset == nil {
			p.Fset = pkg.Fset
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{Fn: fn, Decl: fd, Pkg: pkg}
				p.funcs[fn] = fi
				if tn := receiverTypeName(fn); tn != nil {
					p.methods[tn] = append(p.methods[tn], fi)
				}
			}
		}
	}
	return p
}

// receiverTypeName returns the named receiver type of a method, or nil.
func receiverTypeName(fn *types.Func) *types.TypeName {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// Callee resolves a call site to its module declaration, or nil when
// the target is dynamic (interface method, function value) or outside
// the loaded packages (standard library).
func (p *Program) Callee(pkg *Package, call *ast.CallExpr) *FuncInfo {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := pkg.Info.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	return p.funcs[fn]
}

// Methods returns the declared methods of a named type.
func (p *Program) Methods(named *types.Named) []*FuncInfo {
	if named == nil {
		return nil
	}
	return p.methods[named.Obj()]
}

// ---------------------------------------------------------------------
// releasedFields: which fields of a named struct type are closed by
// some method of the type.

// ReleasedFields returns the set of field names of named that some
// method of named calls Close on — directly (recv.f.Close()), through a
// local alias, element-wise through range loops over the field (slices
// and nested slices of resources), or as the promoted Close itself.
func (p *Program) ReleasedFields(named *types.Named) map[string]bool {
	if named == nil {
		return nil
	}
	tn := named.Obj()
	if got, ok := p.releasedMemo[tn]; ok {
		return got
	}
	out := make(map[string]bool)
	p.releasedMemo[tn] = out // set early: cycles terminate
	for _, m := range p.methods[tn] {
		p.releasedFieldsIn(m, out)
	}
	obj, index, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, tn.Pkg(), "Close")
	if _, ok := obj.(*types.Func); ok && len(index) > 1 { // promoted from an embedded field
		out[named.Underlying().(*types.Struct).Field(index[0]).Name()] = true
	}
	return out
}

// releasedFieldsIn scans one method for Close calls rooted at receiver
// fields and records the field names in out.
func (p *Program) releasedFieldsIn(m *FuncInfo, out map[string]bool) {
	recv := receiverObj(m)
	if recv == nil {
		return
	}
	info := m.Pkg.Info
	// aliases maps local objects to the receiver field they alias
	// (range values and plain assignments from the field or another
	// alias). Iterate to a small fixpoint so chains resolve in source
	// order regardless of nesting (range over range over field).
	aliases := make(map[types.Object]string)
	fieldOf := func(e ast.Expr) (string, bool) {
		// recv.f, an alias local, or an index into either.
		for {
			if ix, ok := e.(*ast.IndexExpr); ok {
				e = ix.X
				continue
			}
			break
		}
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if base, ok := x.X.(*ast.Ident); ok && info.Uses[base] == recv {
				return x.Sel.Name, true
			}
		case *ast.Ident:
			obj := info.Uses[x]
			if obj == nil {
				obj = info.Defs[x]
			}
			if f, ok := aliases[obj]; ok && obj != nil {
				return f, true
			}
		}
		return "", false
	}
	for pass := 0; pass < 3; pass++ {
		changed := false
		ast.Inspect(m.Decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if f, ok := fieldOf(n.X); ok && n.Value != nil {
					if id, isID := n.Value.(*ast.Ident); isID {
						if obj := info.Defs[id]; obj != nil && aliases[obj] == "" {
							aliases[obj] = f
							changed = true
						}
					}
				}
			case *ast.AssignStmt:
				if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
					if f, ok := fieldOf(n.Rhs[0]); ok {
						if id, isID := n.Lhs[0].(*ast.Ident); isID {
							obj := info.Defs[id]
							if obj == nil {
								obj = info.Uses[id]
							}
							if obj != nil && aliases[obj] == "" {
								aliases[obj] = f
								changed = true
							}
						}
					}
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Close" {
					return true
				}
				if f, ok := fieldOf(sel.X); ok {
					if !out[f] {
						out[f] = true
						changed = true
					}
				}
			}
			return true
		})
		if !changed {
			break
		}
	}
}

// receiverObj returns the receiver variable object of a method decl.
func receiverObj(m *FuncInfo) types.Object {
	if m.Decl.Recv == nil || len(m.Decl.Recv.List) != 1 || len(m.Decl.Recv.List[0].Names) != 1 {
		return nil
	}
	return m.Pkg.Info.Defs[m.Decl.Recv.List[0].Names[0]]
}

// ---------------------------------------------------------------------
// paramFate: ownership summaries for closer.

type paramFate int8

const (
	// fateReads: the callee only reads the argument; the caller still
	// owns it.
	fateReads paramFate = iota
	// fateOwned: the callee takes ownership — returns it, closes it,
	// stores it somewhere a release method reaches, or passes it on to
	// an unknown callee (conservatively owned).
	fateOwned
	// fateSunk: the callee stores the argument into a struct field that
	// no method of that struct ever closes — a leak sink the caller
	// should hear about.
	fateSunk
)

type fateKey struct {
	fn    *types.Func
	param int
}

// ParamFate classifies what fn does with its idx-th parameter (counting
// only declared parameters, no receiver). Unknown functions are owned.
func (p *Program) ParamFate(fi *FuncInfo, idx int) paramFate {
	if fi == nil {
		return fateOwned
	}
	key := fateKey{fi.Fn, idx}
	if got, ok := p.fateMemo[key]; ok {
		return got
	}
	p.fateMemo[key] = fateOwned // cycle guard: recursion is owned
	fate := p.paramFateUncached(fi, idx)
	p.fateMemo[key] = fate
	return fate
}

func (p *Program) paramFateUncached(fi *FuncInfo, idx int) paramFate {
	obj := paramObj(fi, idx)
	if obj == nil {
		return fateOwned
	}
	info := fi.Pkg.Info
	fate := fateReads
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if fate == fateOwned {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || info.Uses[id] != obj {
			return true
		}
		switch p.classifyUse(fi.Pkg, fi.Decl.Body, id, obj) {
		case useOwned:
			fate = fateOwned
		case useSunk:
			if fate == fateReads {
				fate = fateSunk
			}
		}
		return true
	})
	return fate
}

func paramObj(fi *FuncInfo, idx int) types.Object {
	i := 0
	for _, fld := range fi.Decl.Type.Params.List {
		for _, name := range fld.Names {
			if i == idx {
				return fi.Pkg.Info.Defs[name]
			}
			i++
		}
		if len(fld.Names) == 0 {
			i++
		}
	}
	return nil
}

// useKind classifies one identifier use of a tracked value.
type useKind int8

const (
	useReads useKind = iota // method receiver or other read
	useOwned                // ownership clearly moves (or is released)
	useSunk                 // stored into a field nothing releases
)

// classifyUse decides what one appearance of a tracked value means for
// ownership. body is the enclosing function body for parent lookups.
func (p *Program) classifyUse(pkg *Package, body *ast.BlockStmt, id *ast.Ident, obj types.Object) useKind {
	parents := nodePath(body, id)
	if len(parents) == 0 {
		return useOwned // can't see the context: stay quiet
	}
	parent := parents[len(parents)-1]

	switch pn := parent.(type) {
	case *ast.SelectorExpr:
		// id.Method(...) or id.field — receiver/read use.
		return useReads
	case *ast.ReturnStmt:
		return useOwned
	case *ast.KeyValueExpr:
		// T{f: id}: a store into a composite literal field.
		if pn.Value == id {
			return p.storeFate(pkg, parents, id)
		}
		return useReads
	case *ast.CompositeLit:
		// Positional element: T{id} — same as a keyed store but without
		// a known field name; treat as owned (rare, stay quiet).
		return useOwned
	case *ast.CallExpr:
		if pn.Fun == id {
			return useReads // calling a function value
		}
		return p.argFate(pkg, pn, id)
	case *ast.AssignStmt:
		for i, rhs := range pn.Rhs {
			if rhs != id || i >= len(pn.Lhs) {
				continue
			}
			if sel, ok := pn.Lhs[i].(*ast.SelectorExpr); ok {
				return p.fieldStoreFate(pkg, sel)
			}
			return useOwned // copied to another variable/index: give up
		}
		return useReads // id on the LHS (reassignment handled by flow)
	case *ast.UnaryExpr:
		return useOwned // &id: address escapes
	case *ast.RangeStmt, *ast.IfStmt, *ast.BinaryExpr, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.CaseClause:
		return useReads // conditions and comparisons read only
	}
	return useOwned
}

// argFate resolves what passing id as an argument to call means.
func (p *Program) argFate(pkg *Package, call *ast.CallExpr, id *ast.Ident) useKind {
	// append(x.f, id) in `x.f = append(x.f, id)` is a store into x.f.
	if fun, ok := call.Fun.(*ast.Ident); ok && fun.Name == "append" && pkg.Info.Uses[fun] == nil {
		if len(call.Args) > 0 {
			if sel, ok := call.Args[0].(*ast.SelectorExpr); ok {
				return p.fieldStoreFate(pkg, sel)
			}
		}
		return useOwned
	}
	fi := p.Callee(pkg, call)
	if fi == nil {
		return useOwned // unknown callee: assume it takes ownership
	}
	// Which parameter slot is id in? (Method receivers are reads —
	// handled by the SelectorExpr case before we get here.)
	for i, arg := range call.Args {
		if arg != id {
			continue
		}
		switch p.ParamFate(fi, i) {
		case fateOwned:
			return useOwned
		case fateSunk:
			return useSunk
		default:
			return useReads
		}
	}
	return useReads
}

// storeFate handles T{f: id}: find the composite literal's type and ask
// whether any method of it releases field f.
func (p *Program) storeFate(pkg *Package, parents []ast.Node, id *ast.Ident) useKind {
	kv := parents[len(parents)-1].(*ast.KeyValueExpr)
	var lit *ast.CompositeLit
	for i := len(parents) - 2; i >= 0; i-- {
		if cl, ok := parents[i].(*ast.CompositeLit); ok {
			lit = cl
			break
		}
	}
	if lit == nil {
		return useOwned
	}
	fieldName := ""
	if keyID, ok := kv.Key.(*ast.Ident); ok {
		fieldName = keyID.Name
	}
	tv, ok := pkg.Info.Types[lit]
	if !ok {
		return useOwned
	}
	return p.namedFieldFate(tv.Type, fieldName)
}

// fieldStoreFate handles `x.f = id` and `x.f = append(x.f, id)`.
func (p *Program) fieldStoreFate(pkg *Package, sel *ast.SelectorExpr) useKind {
	selInfo, ok := pkg.Info.Selections[sel]
	if !ok {
		return useOwned // package-level var etc.
	}
	return p.namedFieldFate(selInfo.Recv(), sel.Sel.Name)
}

// namedFieldFate: storing a resource into field fieldName of t is clean
// when some method of t closes that field, a sink when t is a module
// type with methods but none release the field, and quietly owned when
// t is opaque (outside the module).
func (p *Program) namedFieldFate(t types.Type, fieldName string) useKind {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || fieldName == "" {
		return useOwned
	}
	if p.funcsOfTypePkg(named) == 0 {
		return useOwned // type outside the loaded module: stay quiet
	}
	if p.ReleasedFields(named)[fieldName] {
		return useOwned
	}
	return useSunk
}

// funcsOfTypePkg reports how many declarations the program holds for
// the package defining named — zero means the type is outside the
// loaded module and nothing can be said about its methods.
func (p *Program) funcsOfTypePkg(named *types.Named) int {
	if named.Obj().Pkg() == nil {
		return 0
	}
	path := named.Obj().Pkg().Path()
	n := 0
	for fn := range p.funcs {
		if fn.Pkg() != nil && fn.Pkg().Path() == path {
			n++
		}
	}
	return n
}

// ---------------------------------------------------------------------
// inescapableLoop: goexit's summary.

// InescapableLoop returns the position of a loop in fn's body that no
// path can leave, or token.NoPos. Used transitively: a goroutine whose
// body just calls such a function leaks the same way.
func (p *Program) InescapableLoop(fi *FuncInfo) token.Pos {
	if fi == nil {
		return token.NoPos
	}
	switch p.loopMemo[fi.Fn] {
	case 2:
		return token.NoPos
	}
	pos := inescapableLoopIn(fi.Decl.Body)
	if pos != token.NoPos {
		p.loopMemo[fi.Fn] = 1
	} else {
		p.loopMemo[fi.Fn] = 2
	}
	return pos
}

// inescapableLoopIn scans a body for `for { ... }` loops (no condition,
// not a range) and bare `select {}` statements with no reachable exit:
// no return, break, goto, panic, or terminal call anywhere inside.
// Nested function literals are separate goroutine-less scopes and are
// skipped.
func inescapableLoopIn(body *ast.BlockStmt) token.Pos {
	found := token.NoPos
	ast.Inspect(body, func(n ast.Node) bool {
		if found != token.NoPos {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			if len(n.Body.List) == 0 {
				found = n.Pos() // select{}: blocks forever
				return false
			}
		case *ast.ForStmt:
			if n.Cond != nil {
				return true // bounded loop: the condition is the exit
			}
			if !loopHasExit(n.Body) {
				found = n.Pos()
				return false
			}
		}
		return true
	})
	return found
}

// loopHasExit reports whether a loop body contains any statement that
// can leave the loop (or the goroutine): return, break, goto, panic,
// os.Exit/log.Fatal/runtime.Goexit. Breaks belonging to nested
// switch/select statements still indicate the author wrote an exit arm
// only if a return/goto accompanies them, so plain `break` inside
// switch/select is NOT counted; `break` directly in the loop (or
// labeled) is.
func loopHasExit(body *ast.BlockStmt) bool {
	return blockHasExit(body.List, true)
}

func blockHasExit(list []ast.Stmt, breakable bool) bool {
	for _, s := range list {
		if stmtHasExit(s, breakable) {
			return true
		}
	}
	return false
}

func stmtHasExit(s ast.Stmt, breakable bool) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		switch s.Tok.String() {
		case "goto":
			return true
		case "break":
			return breakable || s.Label != nil
		}
		return false
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			return isPanicOrFatal(call)
		}
	case *ast.BlockStmt:
		return blockHasExit(s.List, breakable)
	case *ast.IfStmt:
		if stmtHasExit(s.Body, breakable) {
			return true
		}
		if s.Else != nil {
			return stmtHasExit(s.Else, breakable)
		}
	case *ast.LabeledStmt:
		return stmtHasExit(s.Stmt, breakable)
	case *ast.SwitchStmt:
		return clausesHaveExit(s.Body)
	case *ast.TypeSwitchStmt:
		return clausesHaveExit(s.Body)
	case *ast.SelectStmt:
		return commsHaveExit(s.Body)
	case *ast.ForStmt, *ast.RangeStmt:
		// A nested loop's returns/gotos still exit the outer one; its
		// plain breaks do not.
		var inner *ast.BlockStmt
		if f, ok := s.(*ast.ForStmt); ok {
			inner = f.Body
		} else {
			inner = s.(*ast.RangeStmt).Body
		}
		return blockHasExit(inner.List, false)
	}
	return false
}

func clausesHaveExit(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok && blockHasExit(cc.Body, false) {
			return true
		}
	}
	return false
}

func commsHaveExit(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CommClause); ok && blockHasExit(cc.Body, false) {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------
// lockAcquires: lockorder's transitive summary.

// LockAcquires returns the set of mutex field variables fn may lock,
// directly or through (statically resolvable) callees.
func (p *Program) LockAcquires(fi *FuncInfo) map[*types.Var]bool {
	if fi == nil {
		return nil
	}
	if got, ok := p.lockMemo[fi.Fn]; ok {
		return got
	}
	out := make(map[*types.Var]bool)
	p.lockMemo[fi.Fn] = out // cycle guard
	info := fi.Pkg.Info
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		// A function literal is its own goroutine or callback scope;
		// locks it takes are not taken synchronously by this call, and
		// counting them manufactures false ordering edges.
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if mv := lockTarget(info, call); mv != nil {
			out[mv] = true
			return true
		}
		if callee := p.Callee(fi.Pkg, call); callee != nil {
			for v := range p.LockAcquires(callee) {
				out[v] = true
			}
		}
		return true
	})
	return out
}

// lockTarget returns the mutex variable locked by call when call is
// <expr>.<mu>.Lock() or <expr>.<mu>.RLock() on a sync.Mutex/RWMutex
// field or variable; nil otherwise.
func lockTarget(info *types.Info, call *ast.CallExpr) *types.Var {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
		return nil
	}
	return mutexVar(info, sel.X)
}

// unlockTarget is the mirror for Unlock/RUnlock.
func unlockTarget(info *types.Info, call *ast.CallExpr) *types.Var {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Unlock" && sel.Sel.Name != "RUnlock") {
		return nil
	}
	return mutexVar(info, sel.X)
}

// mutexVar resolves an expression to the sync.Mutex/RWMutex variable it
// denotes (a struct field or a plain variable).
func mutexVar(info *types.Info, e ast.Expr) *types.Var {
	var obj types.Object
	switch x := e.(type) {
	case *ast.SelectorExpr:
		obj = info.Uses[x.Sel]
	case *ast.Ident:
		obj = info.Uses[x]
	default:
		return nil
	}
	v, ok := obj.(*types.Var)
	if !ok || !isMutexType(v.Type()) {
		return nil
	}
	return v
}

func isMutexType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	if named.Obj().Pkg().Path() != "sync" {
		return false
	}
	name := named.Obj().Name()
	return name == "Mutex" || name == "RWMutex"
}

// lockLabel renders a mutex variable for messages: "Server.mu" for
// struct fields, "pkg.mu" for plain variables.
func lockLabel(v *types.Var) string {
	if v.IsField() {
		// The owning struct's name is not on the Var; recover it from
		// the package scope by scanning named types. Fall back to the
		// package name.
		if owner := fieldOwner(v); owner != "" {
			return owner + "." + v.Name()
		}
	}
	if v.Pkg() != nil {
		return v.Pkg().Name() + "." + v.Name()
	}
	return v.Name()
}

// fieldOwner finds the named struct type declaring field v.
func fieldOwner(v *types.Var) string {
	pkg := v.Pkg()
	if pkg == nil {
		return ""
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == v {
				return tn.Name()
			}
		}
	}
	return ""
}

// isModulePath reports whether path belongs to the analyzed module.
func isModulePath(pkgs []*Package, path string) bool {
	for _, pkg := range pkgs {
		if pkg.Path == path {
			return true
		}
	}
	if len(pkgs) == 0 {
		return false
	}
	root := pkgs[0].Path
	if i := strings.Index(root, "/"); i > 0 {
		root = root[:i]
	}
	return path == root || strings.HasPrefix(path, root+"/")
}
