package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// ErrWrapAnalyzer guards the typed-error chains that retry and
// degradation logic depends on (PR 1): in the fault-plumbing packages
// (lfm, faultsim, transport, medserver, qbism, cluster), a fmt.Errorf
// that formats an error-typed argument must use %w, not %v/%s —
// otherwise errors.Is/As stops matching transport.ErrDropped,
// lfm.ErrChecksum, etc., and the client silently loses its
// retry/degrade classification.
var ErrWrapAnalyzer = &Analyzer{
	Name: "errwrap",
	Doc:  "errors crossing lfm/transport/faultsim boundaries must be wrapped with %w so errors.Is/As keeps matching",
	Run:  runErrWrap,
}

// errWrapScope names the fault-plumbing packages errwrap checks.
var errWrapScope = map[string]bool{
	"lfm": true, "faultsim": true, "medserver": true, "qbism": true, "transport": true, "cluster": true,
}

func runErrWrap(pass *Pass) {
	for _, pkg := range pass.Pkgs {
		if !errWrapScope[pkg.Name] {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				path, name, ok := pkgFunc(pkg, call)
				if !ok || path != "fmt" || name != "Errorf" || len(call.Args) < 2 {
					return true
				}
				format, ok := constStringArg(pkg, call.Args[0])
				if !ok {
					return true
				}
				checkErrorfVerbs(pass, pkg, call, format)
				return true
			})
		}
	}
}

// pkgFunc resolves a call target to (package path, function name) when
// the callee is a package-level function of an imported package.
func pkgFunc(pkg *Package, call *ast.CallExpr) (string, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", "", false
	}
	pn, ok := pkg.Info.Uses[id].(*types.PkgName)
	if !ok {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

func constStringArg(pkg *Package, e ast.Expr) (string, bool) {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// checkErrorfVerbs maps each format verb to its argument positionally
// and reports error-typed arguments formatted with a non-wrapping verb.
func checkErrorfVerbs(pass *Pass, pkg *Package, call *ast.CallExpr, format string) {
	verbs, ok := parseVerbs(format)
	if !ok {
		return // explicit argument indexes or malformed: don't guess
	}
	args := call.Args[1:]
	for i, v := range verbs {
		if i >= len(args) {
			break
		}
		if v == "w" {
			continue
		}
		tv, ok := pkg.Info.Types[args[i]]
		if !ok || tv.Type == nil {
			continue
		}
		if !isErrorType(tv.Type) {
			continue
		}
		pass.Report(args[i].Pos(), "error formatted with %%%s loses the error chain; use %%w so errors.Is/As retry and degradation classification keeps matching", v)
	}
}

// parseVerbs extracts the verb letters of a format string in argument
// order. Returns ok=false for explicit argument indexes (%[1]v) or *
// width/precision, which shift positions.
func parseVerbs(format string) ([]string, bool) {
	var verbs []string
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		if i >= len(format) {
			break
		}
		if format[i] == '%' {
			continue
		}
		// flags, width, precision
		for i < len(format) && strings.ContainsRune("+-# 0123456789.", rune(format[i])) {
			i++
		}
		if i >= len(format) {
			break
		}
		switch format[i] {
		case '[', '*':
			return nil, false
		}
		verbs = append(verbs, string(format[i]))
	}
	return verbs, true
}

// isErrorType reports whether t implements the builtin error interface.
func isErrorType(t types.Type) bool {
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return types.Implements(t, errType)
}
