package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// DeterminismAnalyzer enforces replayability in the simulation
// packages (faultsim, netsim, the sharded read path in cluster, the
// batch scheduler in package qbism and the worker pools of par it runs
// on) and byte-stability in the codec
// packages (rencode, bitio): no wall-clock reads (time.Now, time.Since,
// time.After, ...),
// no process-seeded randomness (top-level math/rand functions or
// rand.New(rand.NewSource(time.Now...))), and no output assembled in
// map-iteration order. The simulation packages replay chaos runs
// byte-for-byte from a seed and a simulated clock; the codec packages
// must emit canonical bytes (the cluster digest-compares encoded
// REGIONs across replicas, and the planner's representation pick hashes
// encoded sizes). Any of these calls silently breaks replay or
// canonical form. Introduced as a convention in PR 1/2; extended to the
// codecs with the k³-tree work in PR 7, and to the transport seam in
// PR 8 — whose sim flavor must replay like the link it wraps, with the
// tcp flavor's real-socket clock reads funneled through
// two explicitly //lint:ignore'd helpers (transport/clock.go).
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock, process randomness, and map-order-dependent output in simulation and codec packages",
	Match: func(pkg *Package) bool {
		return pkg.Name == "faultsim" || pkg.Name == "netsim" ||
			pkg.Name == "cluster" || pkg.Name == "qbism" || pkg.Name == "par" ||
			pkg.Name == "rencode" || pkg.Name == "bitio" ||
			pkg.Name == "transport"
	},
	Run: runDeterminism,
}

// wall-clock functions in package time. time.Duration arithmetic and
// constants are fine — only reading the host clock breaks replay.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true,
	"Tick": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
	"Sleep": true,
}

func runDeterminism(pass *Pass) {
	pkg := pass.Pkg
	for _, f := range pkg.Files {
		// The batch scheduler lives in parallel.go inside package qbism;
		// the rest of that package is allowed to touch the wall clock
		// (e.g. for user-facing timestamps), so scope by file there.
		if pkg.Name == "qbism" && filepath.Base(pkg.Fset.Position(f.Pos()).Filename) != "parallel.go" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkDeterminismCall(pass, n)
			case *ast.RangeStmt:
				checkMapRangeOutput(pass, n)
			}
			return true
		})
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

func checkDeterminismCall(pass *Pass, call *ast.CallExpr) {
	path, name, ok := pkgFunc(pass.Pkg, call)
	if !ok {
		return
	}
	switch path {
	case "time":
		if wallClockFuncs[name] {
			pass.Report(call.Pos(), "time.%s reads the wall clock; simulation packages must use the simulated clock (faultsim seed + Config latency model) so runs replay byte-for-byte", name)
		}
	case "math/rand", "math/rand/v2":
		// Top-level rand functions draw from the process-global source.
		// rand.New(...) with an explicit seeded source is fine.
		if name != "New" && name != "NewSource" && name != "NewPCG" && name != "NewZipf" && name != "NewChaCha8" {
			pass.Report(call.Pos(), "rand.%s uses the process-global source; use a seeded faultsim.Rand (splitmix64) so fault schedules replay", name)
		}
	}
}

// checkMapRangeOutput flags `for k := range m` loops over a map whose
// body appends to a slice, concatenates onto a string, or writes to an
// output stream — all of which leak Go's randomized map order into
// results. Loops that only fill another map, sum, or count are
// order-independent and pass.
func checkMapRangeOutput(pass *Pass, rng *ast.RangeStmt) {
	tv, ok := pass.Pkg.Info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "append" {
				// append result must be kept for it to matter; the parent
				// assignment is the order-dependent operation.
				pass.Report(n.Pos(), "append inside a map-range loop emits map-iteration order; sort the keys first")
				return true
			}
			if path, name, ok := pkgFunc(pass.Pkg, n); ok && path == "fmt" &&
				(strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")) {
				pass.Report(n.Pos(), "fmt.%s inside a map-range loop emits map-iteration order; sort the keys first", name)
				return true
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "WriteString", "WriteByte", "WriteRune", "Write":
					pass.Report(n.Pos(), "%s inside a map-range loop emits map-iteration order; sort the keys first", sel.Sel.Name)
					return true
				}
			}
		case *ast.AssignStmt:
			// s += expr onto a string builds output in map order.
			if n.Tok.String() == "+=" && len(n.Lhs) == 1 {
				if tv, ok := pass.Pkg.Info.Types[n.Lhs[0]]; ok {
					if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						pass.Report(n.Pos(), "string concatenation inside a map-range loop emits map-iteration order; sort the keys first")
					}
				}
			}
		}
		return true
	})
}
