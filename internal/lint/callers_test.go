package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// keptUncalled is the census's kept rows (DESIGN.md §41): functions and
// methods under internal/ that no non-test file calls, each with what
// needs it. A name leaves this list when it gains a caller or is deleted.
var keptUncalled = map[string]string{
	// Test oracles: the reference implementations tests compare against.
	"atlas.UnmarshalMesh":           "oracle: TestMeshMarshalRoundTrip holds the mesh bytes the load stores to it",
	"feature.NearestLinear":         "oracle: the linear scan the VP-tree tests compare against",
	"lfm.Manager.CheckInvariants":   "oracle: the buddy allocator's invariants, checked by the lfm tests",
	"lfm.IO.ReadAtInto":             "oracle: the contiguous read TestReadRunsMatchesReadAt holds the gathering read to",
	"region.FromPredicate":          "oracle: the full-grid scan region, volume and setops tests compare against",
	"sdb.sortRows":                  "oracle: the differential oracle executor (oracle_test.go) sorts with it",
	"spindex.RTree.CheckInvariants": "oracle: the R-tree's structural invariants, checked by its tests",
	"synth.RawStudy.WarpToAtlas":    "oracle: the full-sampling warp TestWarpStudyEqualsFullSampling holds the footprint load to",
	"warp.RMSError":                 "oracle: the fit residual TestFitLandmarksRecoversAffine measures",
	// The fault hook.
	"lfm.Manager.Corrupt": "fault hook: at-rest bit rot for the qbism chaos and trace tests",
	// Cross-package test observers: a test file cannot serve another package.
	"bitio.Writer.Len":                         "observer: rencode's TestGammaCode reads each code's exact bit length",
	"cluster.Cluster.NodeState":                "observer: the qbism chaos suite reads a node's breaker",
	"cluster.Cluster.SimNow":                   "observer: the qbism chaos suite reads the cluster's simulated clock",
	"cluster.PartialResult.LostShards":         "observer: the qbism chaos suite checks which shards a partial lost",
	"costmodel.Model.CoalesceGapPages":         "observer: qbism's pruning test reads the device break-even gap",
	"faultsim.Injector.Count":                  "observer: the qbism chaos and transport tests read what the injector fired",
	"faultsim.Injector.Ops":                    "observer: lfm's reference-read test counts fault decisions",
	"lfm.Manager.NumFields":                    "observer: qbism's load test counts stored long fields",
	"medserver.DecodeQueryRequest":             "observer: qbism's wire tests decode the requests the client encodes",
	"obs.Span.Find":                            "observer: qbism, lfm, sdb and transport tests find spans in a trace",
	"obs.Span.Str":                             "observer: qbism, lfm and transport tests read span string attributes",
	"obs.Span.SumInt":                          "observer: qbism, lfm and sdb tests sum a counter over a trace",
	"qbism.ClusterSystem.ConsistentBandRegion": "observer: the chaos suite's degraded population query",
	"qbism.ClusterSystem.Route":                "observer: the chaos suite finds the shard that serves a study",
	"sdb.Stmt.Exec":                            "observer: qbism's TestPushdownSavesPages runs a prepared statement to completion",
	"volume.DataRegion.NumVoxels":              "observer: qbism and root-package tests count extracted voxels",
	// Test hooks: state a test sets up before it counts.
	"medserver.Server.ReserveExecutions": "test hook: TestRunQueryAllocBudget builds the operator trees two workers keep before it counts a batch",
	// The cluster's batch surface, beside System's; only tests drive it.
	"qbism.ClusterSystem.RunQueries": "test entry: the chaos, bill and client suites run degraded batches, with their partial, through RunQueriesTraced",
	// The frame codec's stream entry points.
	"transport.ReadFrame":  "test entry: the frame tests and FuzzFrame drive the stream reader the TCP flavors run",
	"transport.WriteFrame": "test entry: the frame tests drive the vectored writer the TCP flavors run",
	// Sealed interfaces: the marker method keeps other types out.
	"sdb.Expr.expr":      "seal: only sdb's AST nodes are expressions",
	"sdb.Statement.stmt": "seal: only sdb's AST nodes are statements",
	"sdb.planNode.plan":  "seal: only the planner's node types are plan nodes",
}

// TestInternalFuncsHaveCallers is the census's guard: every function and
// method declared under internal/ is referenced by some non-test file of
// the module other than its own body, implements an interface declared in
// the module or the standard library, or is a kept row with its reason.
// A deletion that orphans a helper fails here until the helper goes too.
func TestInternalFuncsHaveCallers(t *testing.T) {
	loader, err := NewLoader(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	uncalled := uncalledInternalFuncs(loader, pkgs)
	listed := make(map[string]bool, len(uncalled))
	for _, u := range uncalled {
		listed[u.name] = true
		if _, ok := keptUncalled[u.name]; !ok {
			t.Errorf("%s: %s has no non-test caller; delete it or add a kept row with its reason", u.pos, u.name)
		}
	}
	for name, reason := range keptUncalled {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("kept row %s names no reason", name)
		}
		if !listed[name] {
			t.Errorf("kept row %s is stale: it has a caller now, or is gone", name)
		}
	}
}

type uncalledFunc struct {
	name string // pkg.Func, pkg.Type.Method
	pos  token.Position
}

// uncalledInternalFuncs lists, sorted by name, the functions and methods
// (interface methods included) declared in packages under internal/ that
// no non-test file references through Uses or Selections, leaving out
// references from inside the function's own declaration, and leaving out
// concrete methods by which a module type — the receiver's, or one that
// embeds it — implements a non-empty interface declared in the module or
// in a standard package it imports.
func uncalledInternalFuncs(l *Loader, pkgs []*Package) []uncalledFunc {
	internal := l.modulePath + "/internal/"
	used := make(map[*types.Func]bool)
	declOf := make(map[*types.Func]*ast.FuncDecl)
	var declared []*types.Func
	for _, p := range pkgs {
		inInternal := strings.HasPrefix(p.Path, internal)
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				declOf[fn] = fd
				if inInternal && fd.Name.Name != "init" && fd.Name.Name != "_" {
					declared = append(declared, fn)
				}
			}
		}
		if !inInternal {
			continue
		}
		scope := p.Types.Scope()
		for _, n := range scope.Names() {
			tn, ok := scope.Lookup(n).(*types.TypeName)
			if !ok {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumExplicitMethods(); i++ {
					declared = append(declared, it.ExplicitMethod(i))
				}
			}
		}
	}
	use := func(obj types.Object, at token.Pos) {
		fn, ok := obj.(*types.Func)
		if !ok {
			return
		}
		fn = fn.Origin()
		if fd := declOf[fn]; fd != nil && fd.Pos() <= at && at < fd.End() {
			return
		}
		used[fn] = true
	}
	for _, p := range pkgs {
		for id, obj := range p.Info.Uses {
			use(obj, id.Pos())
		}
		for sel, s := range p.Info.Selections {
			use(s.Obj(), sel.Sel.Pos())
		}
	}

	ifaces := interfacesSeen(pkgs)
	var named []*types.Named
	for _, p := range pkgs {
		scope := p.Types.Scope()
		for _, n := range scope.Names() {
			if tn, ok := scope.Lookup(n).(*types.TypeName); ok && !tn.IsAlias() {
				if nt, ok := tn.Type().(*types.Named); ok && !types.IsInterface(nt) && nt.TypeParams().Len() == 0 {
					named = append(named, nt)
				}
			}
		}
	}
	var out []uncalledFunc
	for _, fn := range declared {
		if used[fn] || implementsDeclared(fn, named, ifaces) {
			continue
		}
		out = append(out, uncalledFunc{name: censusName(fn, internal), pos: l.Fset.Position(fn.Pos())})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// interfacesSeen collects every non-empty method-set interface named in
// the module's packages and the standard packages they import, the
// universe's error, and every interface literal the module's code uses.
func interfacesSeen(pkgs []*Package) []*types.Interface {
	var out []*types.Interface
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
			out = append(out, it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := make(map[*types.Package]bool)
	var visit func(tp *types.Package)
	visit = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		scope := tp.Scope()
		for _, n := range scope.Names() {
			if tn, ok := scope.Lookup(n).(*types.TypeName); ok && !tn.IsAlias() {
				add(tn.Type())
			}
		}
		for _, imp := range tp.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		visit(p.Types)
		for _, tv := range p.Info.Types {
			if tv.Type != nil {
				if _, ok := tv.Type.(*types.Interface); ok {
					add(tv.Type)
				}
			}
		}
	}
	return out
}

// implementsDeclared reports whether fn is a concrete method that some
// type in named has in its method set, itself or promoted through an
// embedded field, while implementing an interface in ifaces that names it.
func implementsDeclared(fn *types.Func, named []*types.Named, ifaces []*types.Interface) bool {
	if fn.Type().(*types.Signature).Recv() == nil {
		return false
	}
	var withFn []*types.Interface
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() {
				withFn = append(withFn, it)
				break
			}
		}
	}
	for _, nt := range named {
		for _, t := range []types.Type{nt, types.NewPointer(nt)} {
			sel := types.NewMethodSet(t).Lookup(fn.Pkg(), fn.Name())
			if sel == nil || sel.Obj() != fn {
				continue
			}
			for _, it := range withFn {
				if types.Implements(t, it) {
					return true
				}
			}
		}
	}
	return false
}

// censusName is fn as the census table writes it: the package path below
// internal/, then the receiver's type name for a method, then the name.
func censusName(fn *types.Func, internal string) string {
	pkg := strings.TrimPrefix(fn.Pkg().Path(), internal)
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return pkg + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	return pkg + "." + fn.Name()
}
