package v2plint

import (
	"go/ast"
	"path"
	"strings"
)

// WallClock forbids reading the host's wall clock anywhere under
// internal/ (the linter's own internal/analysis tree excepted, which
// times itself for -time). Simulated time is the eventq clock; a
// time.Now that leaks into planning, scheduling or results makes two
// identical runs diverge, whichever layer reads it — so the read is
// rejected at the source rather than chased to the places it might
// flow. The profiling hooks in internal/simnet measure wall time
// deliberately and carry //v2plint:allow wallclock annotations; cmd/,
// bench/ and examples/ front-ends may time whole runs.
var WallClock = &Analyzer{
	Name: "wallclock",
	Doc: "forbids time.Now/time.Since/time.Until in every internal/ package " +
		"except internal/analysis; use the simulated clock",
	Run: runWallClock,
}

// clockFree reports whether the package is under the wall-clock
// contract: any package below an internal/ directory other than
// internal/analysis.
func clockFree(pkgPath string) bool {
	_, rest, ok := strings.Cut("/"+pkgPath, "/internal/")
	return ok && rest != "analysis" && !strings.HasPrefix(rest, "analysis/")
}

var wallClockFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

func runWallClock(pass *Pass) {
	if !clockFree(pass.Pkg.Path()) {
		return
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, pkgPath, ok := pkgFunc(pass.TypesInfo, sel)
			if !ok || pkgPath != "time" || !wallClockFuncs[fn.Name()] {
				return true
			}
			pass.Reportf(sel.Pos(),
				"time.%s reads the wall clock inside simulation package %s; use the simulated clock (simtime/eventq)",
				fn.Name(), path.Base(pass.Pkg.Path()))
			return true
		})
	}
}
