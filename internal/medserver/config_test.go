package medserver

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestConfigFieldsHaveServerReaders: every Config field is read by the
// server itself — as a selector in this package's non-test code, outside
// the struct's declaration and WithDefaults. A setting only a client
// reads belongs among the client's options, not here.
func TestConfigFieldsHaveServerReaders(t *testing.T) {
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var fields []string
	read := make(map[string]bool)
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		// A package-qualified name (rencode.Method) is no field read.
		imports := make(map[string]bool)
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = true
		}
		for _, decl := range f.Decls {
			if st := configStruct(decl); st != nil {
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						fields = append(fields, name.Name)
					}
				}
				continue
			}
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil && fn.Name.Name == "WithDefaults" {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); !ok || !imports[id.Name] {
						read[sel.Sel.Name] = true
					}
				}
				return true
			})
		}
	}
	if len(fields) == 0 {
		t.Fatal("no Config struct found — the check is vacuous")
	}
	for _, name := range fields {
		if !read[name] {
			t.Errorf("Config.%s has no reader in the server: a client-only setting belongs among the client's options", name)
		}
	}
}

// configStruct returns the struct type of decl when decl declares Config.
func configStruct(decl ast.Decl) *ast.StructType {
	gd, ok := decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.TYPE {
		return nil
	}
	for _, spec := range gd.Specs {
		if ts := spec.(*ast.TypeSpec); ts.Name.Name == "Config" {
			st, _ := ts.Type.(*ast.StructType)
			return st
		}
	}
	return nil
}
