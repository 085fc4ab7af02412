// Package lint implements phasemonlint: a suite of custom static
// analyzers enforcing the invariants this reproduction's results rest
// on but that the Go compiler cannot see —
//
//   - determinism: the simulated substrate must be bit-deterministic,
//     so GPHT accuracy and the energy tables reproduce exactly; no
//     wall-clock reads, no global math/rand source, no output whose
//     order depends on map iteration.
//   - nilhub: telemetry is optional by contract (a nil *telemetry.Hub
//     means "unobserved"), so every component holding a hub must guard
//     it before touching it, and instrument state must be atomic.
//   - floateq: Mem/Uop class boundaries (the paper's Table 1) are
//     float64 thresholds; comparing them with == silently misbins
//     samples that went through different arithmetic.
//   - exhaustive: switches over the phase taxonomy and DVFS settings
//     (Tables 1 and 2) must cover every declared constant or reject
//     unknown values explicitly, so a new bin can never fall through.
//   - guarded: struct fields annotated `// guarded by mu` (or
//     `// guarded by Type.mu` for a foreign owner) may only be read or
//     written while that mutex is held — RLock suffices for reads;
//     copy-out-under-lock and *Locked-suffix callees are understood.
//   - hotalloc: functions annotated //lint:hotpath must be statically
//     allocation-free through their intra-package call graph; error
//     and grow-on-demand branches are recognized as cold.
//   - deadline: conn Read/Write in the serving packages must be
//     dominated by the matching SetRead/SetWriteDeadline in the same
//     function or all of its callers.
//   - unusedexport: an exported function or method must have a caller
//     in non-test code. It is the one whole-program pass: references
//     are collected from every analysed package and from the perfbench
//     module, loaded as a reference-only root because it builds its
//     benchmark from this tree (see LoadProgram), and a method whose
//     name and signature match an interface method counts as called.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) but is built purely on the standard
// library so the module stays dependency-free; porting an analyzer to
// the upstream framework is a mechanical change of import paths.
//
// Escape hatches are line-scoped comment directives — //lint:<name>
// (e.g. //lint:wallclock, //lint:floateq, //lint:guarded; commas
// combine several) suppresses the corresponding finding on its own
// line or the line below. //lint:hotpath is not an escape hatch: it
// marks a hotalloc root. //lint:unusedexport must be followed by a
// reason, and is kept only for the cases DESIGN.md §8 lists: the
// retaining form of an engine API its tests share, test harnesses and
// seams, reference oracles that tests check live code against, and
// paper pins. The suppression policy per package is part of the repo
// gate: internal/agg, internal/wire, and internal/phased
// admit no guarded/hotalloc/deadline suppressions at all (see
// TestNoEscapeHatchesInHotPackages and DESIGN.md §13).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check, mirroring
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -analyzers
	// selections.
	Name string
	// Doc is a one-paragraph description.
	Doc string
	// Run executes the analyzer on one package, reporting findings
	// through pass.Report.
	Run func(*Pass) error
	// Match restricts which import paths the driver applies the
	// analyzer to; nil applies it everywhere. Tests bypass Match and
	// invoke Run directly.
	Match func(pkgPath string) bool
}

// A Pass provides one analyzed package to an Analyzer's Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Program is everything the run loaded; only whole-program
	// analyzers (unusedexport) read it.
	Program *Program
	// Report delivers one finding.
	Report func(Diagnostic)

	// directives is the lazily built filename -> line -> directive
	// names index of //lint: comments.
	directives map[string]map[int][]string
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Suppressed reports whether a //lint:<name> directive is attached to
// the line containing pos or the line immediately above it.
func (p *Pass) Suppressed(name string, pos token.Pos) bool {
	if p.directives == nil {
		p.directives = buildDirectives(p.Fset, p.Files)
	}
	position := p.Fset.Position(pos)
	lines := p.directives[position.Filename]
	for _, line := range []int{position.Line, position.Line - 1} {
		for _, d := range lines[line] {
			if d == name {
				return true
			}
		}
	}
	return false
}

// buildDirectives indexes every //lint: comment by file and line.
func buildDirectives(fset *token.FileSet, files []*ast.File) map[string]map[int][]string {
	out := make(map[string]map[int][]string)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names := directiveNames(c.Text)
				if len(names) == 0 {
					continue
				}
				position := fset.Position(c.Pos())
				if out[position.Filename] == nil {
					out[position.Filename] = make(map[int][]string)
				}
				out[position.Filename][position.Line] =
					append(out[position.Filename][position.Line], names...)
			}
		}
	}
	return out
}

// directiveNames parses the analyzer names out of one //lint: comment.
// The directive head is everything up to the first whitespace; commas
// separate multiple analyzer names (`//lint:guarded,hotalloc reason`),
// and empty segments are dropped. Comments not starting with //lint:
// yield nil. Carriage returns (CRLF sources) are treated as
// whitespace.
func directiveNames(text string) []string {
	rest, ok := strings.CutPrefix(text, "//lint:")
	if !ok {
		return nil
	}
	head := rest
	if i := strings.IndexFunc(rest, func(r rune) bool {
		return r == ' ' || r == '\t' || r == '\r' || r == '\n'
	}); i >= 0 {
		head = rest[:i]
	}
	var names []string
	for _, n := range strings.Split(head, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names
}

// RunAnalyzer applies one analyzer to one package of prog and returns
// its findings sorted by position.
func RunAnalyzer(a *Analyzer, prog *Program, pkg *Package) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.TypesInfo,
		Program:   prog,
		Report:    func(d Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// isPkgIdent reports whether expr is an identifier naming an imported
// package with the given import path, e.g. the "time" in time.Now.
func isPkgIdent(info *types.Info, expr ast.Expr, path string) bool {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == path
}

// namedFrom unwraps pointers and returns the named type and its
// defining package/type names, or ok=false for unnamed types.
func namedFrom(t types.Type) (pkgName, typeName string, ok bool) {
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil {
		return "", "", false
	}
	return named.Obj().Pkg().Name(), named.Obj().Name(), true
}
