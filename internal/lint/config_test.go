package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// configStructs are the settings the config census covers: every
// exported field of each is something a caller can turn.
var configStructs = []string{
	"medserver.Config",
	"qbism.ClusterConfig",
	"cluster.Config",
	"transport.ServerConfig",
	"transport.TCPOptions",
	"transport.AdmissionConfig",
	"daemon.Config",
	"sdb.UDF",
}

// keptUnset is the config census's kept rows: exported fields of
// configStructs that no non-test file sets, each with what needs it. A
// name leaves this list when a program sets it or it is deleted.
var keptUnset = map[string]string{
	"medserver.Config.Method":     "benchmark pin: the wire codec the benchmark runs is the zero value, Elias γ, until the benchmark names it (ROADMAP 4(a)); tests send naive runs",
	"qbism.ClusterConfig.Breaker": "chaos suites: the degraded-shard tests open, probe and close node breakers",
}

// TestConfigFieldsAreSet is the config census (DESIGN.md §17): every
// exported field of configStructs is set by some non-test file of the
// module — a keyed composite literal, an assignment, or its address
// taken — outside the struct's own methods (its defaults), or is a kept
// row with its reason. A knob no program turns fails here until it goes.
func TestConfigFieldsAreSet(t *testing.T) {
	loader, err := NewLoader(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	internal := loader.modulePath + "/internal/"
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	set := setFields(pkgs)
	var fields []string
	for _, name := range configStructs {
		pkg, typ, _ := strings.Cut(name, ".")
		p := byPath[internal+pkg]
		if p == nil {
			t.Fatalf("%s: no package %s", name, internal+pkg)
		}
		tn, ok := p.Types.Scope().Lookup(typ).(*types.TypeName)
		if !ok {
			t.Fatalf("%s: no such type", name)
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			t.Fatalf("%s: not a struct", name)
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !f.Exported() {
				continue
			}
			field := name + "." + f.Name()
			fields = append(fields, field)
			_, kept := keptUnset[field]
			switch {
			case !set[f] && !kept:
				t.Errorf("%s: %s is set by no non-test file; delete it or add a kept row with its reason",
					loader.Fset.Position(f.Pos()), field)
			case set[f] && kept:
				t.Errorf("kept row %s is stale: a non-test file sets it now", field)
			}
		}
	}
	sort.Strings(fields)
	for field, reason := range keptUnset {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("kept row %s names no reason", field)
		}
		if i := sort.SearchStrings(fields, field); i == len(fields) || fields[i] != field {
			t.Errorf("kept row %s is stale: no such field", field)
		}
	}
}

// setFields returns the struct fields that non-test code sets: the keys
// of keyed composite literals, the targets of assignments and ++/--,
// and fields whose address is taken — except inside a method of the
// field's own struct, where a write is the struct filling its defaults.
func setFields(pkgs []*Package) map[*types.Var]bool {
	set := make(map[*types.Var]bool)
	for _, p := range pkgs {
		fieldOf := func(x ast.Expr) *types.Var {
			sel, ok := ast.Unparen(x).(*ast.SelectorExpr)
			if !ok {
				return nil
			}
			if s := p.Info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				return s.Obj().(*types.Var)
			}
			return nil
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				var own *types.Named // the receiver's type, in a method
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
						own = receiverNamed(fn)
					}
				}
				mark := func(v *types.Var) {
					if v != nil && !(own != nil && ownField(own, v)) {
						set[v] = true
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.KeyValueExpr:
						if id, ok := n.Key.(*ast.Ident); ok {
							if v, ok := p.Info.Uses[id].(*types.Var); ok && v.IsField() {
								mark(v)
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							mark(fieldOf(lhs))
						}
					case *ast.IncDecStmt:
						mark(fieldOf(n.X))
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							mark(fieldOf(n.X))
						}
					}
					return true
				})
			}
		}
	}
	return set
}

// receiverNamed returns the named type of fn's receiver.
func receiverNamed(fn *types.Func) *types.Named {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// ownField reports whether v is a field declared directly in named's
// struct.
func ownField(named *types.Named, v *types.Var) bool {
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i) == v {
			return true
		}
	}
	return false
}
