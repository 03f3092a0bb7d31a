package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// ErrWrapAnalyzer guards the typed-error chains that retry and
// degradation logic depends on (PR 1): in the fault-plumbing packages
// (lfm, netsim, faultsim, transport, medserver, qbism), a fmt.Errorf
// that formats an error-typed argument must use %w, not %v/%s —
// otherwise errors.Is/As stops matching netsim.ErrDropped,
// lfm.ErrChecksum, etc., and the client silently loses its
// retry/degrade classification.
var ErrWrapAnalyzer = &Analyzer{
	Name: "errwrap",
	Doc:  "errors crossing lfm/netsim/faultsim boundaries must be wrapped with %w so errors.Is/As keeps matching",
	Match: func(pkg *Package) bool {
		switch pkg.Name {
		case "lfm", "netsim", "faultsim", "medserver", "qbism", "transport":
			return true
		}
		return false
	},
	Run: runErrWrap,
}

func runErrWrap(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			path, name, ok := pkgFunc(pass.Pkg, call)
			if !ok || path != "fmt" || name != "Errorf" || len(call.Args) < 2 {
				return true
			}
			format, ok := constStringArg(pass.Pkg, call.Args[0])
			if !ok {
				return true
			}
			checkErrorfVerbs(pass, call, format)
			return true
		})
	}
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
func checkErrorfVerbs(pass *Pass, call *ast.CallExpr, format string) {
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
		tv, ok := pass.Pkg.Info.Types[args[i]]
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
