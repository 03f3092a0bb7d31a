package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// handMallocs returns where a test file reads a runtime.MemStats's
// Mallocs field itself. An allocation count read by hand runs on every
// processor with the collector on, so it counts what other goroutines
// allocate meanwhile; internal/bench's AllocsPerCall and AllocsInWindow
// count on one processor with the collector off, and are the one place
// the field is read.
func handMallocs(fset *token.FileSet, f *ast.File) []token.Position {
	if !imports(f, "runtime") {
		return nil
	}
	var at []token.Position
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Mallocs" {
			at = append(at, fset.Position(sel.Sel.Pos()))
		}
		return true
	})
	return at
}

func imports(f *ast.File, path string) bool {
	for _, spec := range f.Imports {
		if strings.Trim(spec.Path.Value, `"`) == path {
			return true
		}
	}
	return false
}

// TestNoHandCountedMallocs fails on a _test.go file outside
// internal/bench that reads MemStats.Mallocs by hand: an allocation
// budget counts through internal/bench.
func TestNoHandCountedMallocs(t *testing.T) {
	fset := token.NewFileSet()
	for _, f := range goFiles(t, repoRoot(t)) {
		if !strings.HasSuffix(f, "_test.go") || strings.HasPrefix(f, "internal/bench/") {
			continue
		}
		file, err := parser.ParseFile(fset, f, readRepoFile(t, f), parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, at := range handMallocs(fset, file) {
			t.Errorf("%s:%d: reads MemStats.Mallocs by hand; count with bench.AllocsPerCall or bench.AllocsInWindow", f, at.Line)
		}
	}
}

// TestHandMallocsSeeded: the check fires on a hand-read count and on
// nothing else.
func TestHandMallocsSeeded(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		want      int
	}{
		{"hand count", `package p
import ("runtime"; "testing")
func TestX(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n > 0 { t.Fatal(n) }
}`, 2},
		{"through bench", `package p
import ("testing"; "qbism/internal/bench")
func TestX(t *testing.T) { _ = bench.AllocsPerCall(t.Logf, 10, func() {}) }`, 0},
		{"another Mallocs", `package p
type stats struct{ Mallocs int }
func f(s stats) int { return s.Mallocs }`, 0},
	} {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "x_test.go", tc.src, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(handMallocs(fset, f)); got != tc.want {
			t.Errorf("%s: %d reads found, want %d", tc.name, got, tc.want)
		}
	}
}
