package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// enumType names one enum-like named type whose switches must be
// exhaustive. Matching is by package *name* and type name (not import
// path) so the testdata fixtures can model the real packages.
type enumType struct{ pkg, typ string }

// enforcedEnums are the taxonomies a new bin must never silently fall
// out of: the six phase classes (Table 1), the SpeedStep operating
// points (Table 2), the telemetry journal's event kinds, the serving
// protocol's frame kinds, the phased session lifecycle, and the rollup
// pipeline's sample outcomes.
var enforcedEnums = []enumType{
	{"phase", "Class"},
	{"dvfs", "Setting"},
	{"telemetry", "EventKind"},
	{"wire", "FrameKind"},
	{"phased", "SessionState"},
	{"agg", "Outcome"},
	{"lint", "LockMode"},
}

// ExhaustiveAnalyzer requires every switch over an enforced enum type
// to either cover all of the type's declared constants or carry a
// non-empty default clause that handles (typically rejects) unknown
// values. Without it, adding a seventh phase class or operating point
// compiles cleanly while every switch quietly drops the new bin.
var ExhaustiveAnalyzer = &Analyzer{
	Name: "exhaustive",
	Doc: "switches over phase.Class, dvfs.Setting, telemetry.EventKind, " +
		"wire.FrameKind, phased.SessionState, agg.Outcome and " +
		"lint.LockMode must cover all constants or reject unknowns in a default",
	Run: runExhaustive,
}

func runExhaustive(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			checkSwitch(pass, sw)
			return true
		})
	}
	return nil
}

func checkSwitch(pass *Pass, sw *ast.SwitchStmt) {
	tv, ok := pass.TypesInfo.Types[sw.Tag]
	if !ok || tv.Type == nil {
		return
	}
	pkgName, typeName, ok := namedFrom(tv.Type)
	if !ok || !isEnforcedEnum(pkgName, typeName) {
		return
	}
	named := tv.Type
	if ptr, isPtr := named.(*types.Pointer); isPtr {
		named = ptr.Elem()
	}
	constants := declaredConstants(named)
	if len(constants) == 0 {
		return
	}

	covered := make(map[string]bool)
	sawDynamicCase := false
	var defaultClause *ast.CaseClause
	for _, stmt := range sw.Body.List {
		clause := stmt.(*ast.CaseClause)
		if clause.List == nil {
			defaultClause = clause
			continue
		}
		for _, expr := range clause.List {
			etv, ok := pass.TypesInfo.Types[expr]
			if !ok || etv.Value == nil {
				// A non-constant case expression: coverage is no longer
				// decidable, so stay silent rather than guess.
				sawDynamicCase = true
				continue
			}
			for _, c := range constants {
				if constant.Compare(c.Val(), token.EQL, etv.Value) {
					covered[c.Name()] = true
				}
			}
		}
	}
	if sawDynamicCase {
		return
	}

	if defaultClause != nil {
		if len(defaultClause.Body) == 0 {
			pass.Reportf(defaultClause.Pos(),
				"switch over %s.%s has an empty default: unknown values are "+
					"silently dropped; return an error or handle them explicitly",
				pkgName, typeName)
		}
		return
	}
	var missing []string
	for _, c := range constants {
		if !covered[c.Name()] {
			missing = append(missing, c.Name())
		}
	}
	if len(missing) > 0 {
		pass.Reportf(sw.Pos(),
			"switch over %s.%s is not exhaustive: missing %s (add the cases "+
				"or a default that rejects unknown values)",
			pkgName, typeName, strings.Join(missing, ", "))
	}
}

func isEnforcedEnum(pkgName, typeName string) bool {
	for _, e := range enforcedEnums {
		if e.pkg == pkgName && e.typ == typeName {
			return true
		}
	}
	return false
}

// declaredConstants returns the package-level constants declared with
// exactly the given named type, ordered by value so diagnostics list
// missing members in enum order rather than alphabetically.
func declaredConstants(t types.Type) []*types.Const {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil
	}
	scope := named.Obj().Pkg().Scope()
	var out []*types.Const
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if ok && types.Identical(c.Type(), named) {
			out = append(out, c)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return constant.Compare(out[i].Val(), token.LSS, out[j].Val())
	})
	return out
}

// String renders the enum set for documentation and -list output.
func (e enumType) String() string { return fmt.Sprintf("%s.%s", e.pkg, e.typ) }
