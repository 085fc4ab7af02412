// Package linttest runs lint analyzers against fixture packages under
// a testdata directory, checking reported diagnostics against
// analysistest-style expectations: a comment
//
//	// want "regexp" "another regexp"
//
// on a line declares that the analyzer must report diagnostics
// matching each regexp on that line, and may report nothing else.
//
// Fixtures live under <testdata>/src/<pkg>/...; a fixture may import
// sibling fixture packages by their path relative to src (used to
// model internal/telemetry, internal/phase, ... without depending on
// the real packages), and any standard-library package, which is
// type-checked from GOROOT source so no pre-built export data is
// needed.
package linttest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"phasemon/internal/lint"
)

// Run applies the analyzer to each named fixture package and compares
// diagnostics with the fixtures' want comments. Every fixture loaded —
// the named ones and the fixtures they import — makes up the Program a
// whole-program analyzer sees.
//
//lint:unusedexport test harness: the analyzer tests are its callers
func Run(t *testing.T, testdata string, a *lint.Analyzer, fixtures ...string) {
	t.Helper()
	ld := &loader{
		src:  filepath.Join(testdata, "src"),
		fset: token.NewFileSet(),
		pkgs: make(map[string]*fixturePkg),
	}
	ld.std = importer.ForCompiler(ld.fset, "source", nil)
	for _, name := range fixtures {
		if _, err := ld.load(name); err != nil {
			t.Fatalf("%s: loading fixture %s: %v", a.Name, name, err)
		}
	}
	prog := &lint.Program{}
	for path, pkg := range ld.pkgs {
		prog.Packages = append(prog.Packages, &lint.Package{
			PkgPath: path, Fset: ld.fset, Files: pkg.files, Types: pkg.types, TypesInfo: pkg.info,
		})
	}
	for _, name := range fixtures {
		runOne(t, ld, prog, a, name)
	}
}

func runOne(t *testing.T, ld *loader, prog *lint.Program, a *lint.Analyzer, fixture string) {
	t.Helper()
	pkg := ld.pkgs[fixture]
	var diags []lint.Diagnostic
	pass := &lint.Pass{
		Analyzer:  a,
		Fset:      ld.fset,
		Files:     pkg.files,
		Pkg:       pkg.types,
		TypesInfo: pkg.info,
		Program:   prog,
		Report:    func(d lint.Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("%s: running on %s: %v", a.Name, fixture, err)
	}

	wants := collectWants(t, ld.fset, pkg.files)
	matchDiagnostics(t, ld.fset, a.Name, fixture, diags, wants)
}

// want is one expected diagnostic.
type want struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)`)

// collectWants extracts the want expectations from fixture comments.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*want {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, lit := range splitQuoted(m[1]) {
					pattern, err := strconv.Unquote(lit)
					if err != nil {
						t.Fatalf("%s:%d: bad want literal %s: %v", pos.Filename, pos.Line, lit, err)
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pattern, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, pattern: re})
				}
			}
		}
	}
	return wants
}

// splitQuoted returns the top-level double- or back-quoted string
// literals in s, in Go literal syntax ready for strconv.Unquote.
func splitQuoted(s string) []string {
	var out []string
	for {
		start := strings.IndexAny(s, "\"`")
		if start < 0 {
			return out
		}
		quote := s[start]
		rest := s[start+1:]
		end := 0
		for end < len(rest) {
			if quote == '"' && rest[end] == '\\' {
				end += 2
				continue
			}
			if rest[end] == quote {
				break
			}
			end++
		}
		if end >= len(rest) {
			return out
		}
		out = append(out, s[start:start+end+2])
		s = rest[end+1:]
	}
}

func matchDiagnostics(t *testing.T, fset *token.FileSet, analyzer, fixture string, diags []lint.Diagnostic, wants []*want) {
	t.Helper()
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		found := false
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.pattern.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic at %s: %s", analyzer, pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s: %s: no diagnostic at %s:%d matching %q",
				analyzer, fixture, w.file, w.line, w.pattern)
		}
	}
}

// --- fixture loading -----------------------------------------------

type fixturePkg struct {
	files []*ast.File
	types *types.Package
	info  *types.Info
}

type loader struct {
	src  string
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*fixturePkg
	// loading guards against fixture import cycles.
	loading []string
}

// Import resolves fixture-relative paths first, then the standard
// library, so the loader can serve as the type-checker's importer.
func (ld *loader) Import(path string) (*types.Package, error) {
	if dirExists(filepath.Join(ld.src, path)) {
		pkg, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.types, nil
	}
	return ld.std.Import(path)
}

func (ld *loader) load(path string) (*fixturePkg, error) {
	if pkg, ok := ld.pkgs[path]; ok {
		return pkg, nil
	}
	for _, p := range ld.loading {
		if p == path {
			return nil, fmt.Errorf("fixture import cycle through %s", path)
		}
	}
	ld.loading = append(ld.loading, path)
	defer func() { ld.loading = ld.loading[:len(ld.loading)-1] }()

	dir := filepath.Join(ld.src, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		// Like the module loader, fixtures are type-checked from their
		// non-test sources only.
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	sort.Slice(files, func(i, j int) bool {
		return ld.fset.Position(files[i].Pos()).Filename < ld.fset.Position(files[j].Pos()).Filename
	})

	info := lint.NewTypesInfo()
	conf := types.Config{Importer: ld}
	tpkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking fixture %s: %v", path, err)
	}
	pkg := &fixturePkg{files: files, types: tpkg, info: info}
	ld.pkgs[path] = pkg
	return pkg, nil
}

func dirExists(dir string) bool {
	st, err := os.Stat(dir)
	return err == nil && st.IsDir()
}
