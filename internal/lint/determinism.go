package lint

import (
	"go/ast"
	"go/types"
)

// wallclockFuncs are the time-package entry points that read or depend
// on the wall clock. Pure conversions and constructors (time.Duration,
// time.Unix, time.Date, ...) are fine in simulation code.
var wallclockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Sleep": true, "Tick": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

// globalRandAllowed are the math/rand names that do NOT touch the
// package-global source: constructors and type names used to thread an
// explicitly seeded generator.
var globalRandAllowed = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"Rand": true, "Source": true, "Source64": true, "Zipf": true,
}

// outputFuncs are the fmt entry points whose call inside a map
// iteration makes output order depend on map iteration order.
var outputFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Sprint": true, "Sprintf": true, "Sprintln": true,
}

// DeterminismAnalyzer forbids nondeterminism sources in the simulated
// substrate: wall-clock reads (the time package's, and the telemetry
// hub's clock, Hub.Now), the global math/rand source, and output
// emitted during map iteration. The substrate must be bit-deterministic
// so that a seed fully reproduces every phase sequence, GPHT accuracy
// figure, and energy total; these three are the ways reproductions
// quietly stop reproducing.
//
// Live-path code that legitimately reads the clock carries a
// //lint:wallclock directive; sorted-output code that must iterate a
// map uses //lint:maporder.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc: "forbid time.Now/math-rand-global/map-order-dependent output " +
		"in simulation packages",
	Run:   runDeterminism,
	Match: matchPaths(simulationPackages),
}

func runDeterminism(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkDeterminismSelector(pass, n)
			case *ast.RangeStmt:
				checkMapRangeOutput(pass, n)
			}
			return true
		})
	}
	return nil
}

func checkDeterminismSelector(pass *Pass, sel *ast.SelectorExpr) {
	name := sel.Sel.Name
	switch {
	case isPkgIdent(pass.TypesInfo, sel.X, "time") && wallclockFuncs[name]:
		if !pass.Suppressed("wallclock", sel.Pos()) {
			pass.Reportf(sel.Pos(),
				"time.%s reads the wall clock; simulation code must be "+
					"deterministic (inject a clock, or annotate a live path "+
					"with //lint:wallclock)", name)
		}
	case name == "Now" && isHubMethod(pass.TypesInfo, sel):
		if !pass.Suppressed("wallclock", sel.Pos()) {
			pass.Reportf(sel.Pos(),
				"(*telemetry.Hub).Now reads the wall clock unless a test "+
					"injects one; stamp simulated runs in simulated time "+
					"(or annotate a live path with //lint:wallclock)")
		}
	case isRandPkg(pass.TypesInfo, sel.X) && !globalRandAllowed[name]:
		// Only package-level functions draw from the global source;
		// methods on a threaded *rand.Rand arrive as selectors on a
		// variable, not on the package name, and never reach here.
		if !pass.Suppressed("rand", sel.Pos()) {
			pass.Reportf(sel.Pos(),
				"rand.%s uses the global math/rand source; thread a seeded "+
					"*rand.Rand so runs are reproducible", name)
		}
	}
}

// isHubMethod reports whether sel selects a method of telemetry.Hub,
// as a call's operand or a method expression.
func isHubMethod(info *types.Info, sel *ast.SelectorExpr) bool {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() == types.FieldVal {
		return false
	}
	pkg, name, ok := namedFrom(s.Recv())
	return ok && pkg == "telemetry" && name == "Hub"
}

func isRandPkg(info *types.Info, expr ast.Expr) bool {
	return isPkgIdent(info, expr, "math/rand") || isPkgIdent(info, expr, "math/rand/v2")
}

// checkMapRangeOutput flags fmt output emitted while ranging over a
// map: the emission order then follows Go's randomized map iteration.
func checkMapRangeOutput(pass *Pass, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !isPkgIdent(pass.TypesInfo, sel.X, "fmt") || !outputFuncs[sel.Sel.Name] {
			return true
		}
		if !pass.Suppressed("maporder", call.Pos()) && !pass.Suppressed("maporder", rng.Pos()) {
			pass.Reportf(call.Pos(),
				"fmt.%s inside map iteration emits in nondeterministic order; "+
					"sort the keys first (//lint:maporder to override)", sel.Sel.Name)
		}
		return true
	})
}
