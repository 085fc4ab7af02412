package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	PkgPath   string
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// A Program is what one lint run sees: the analysed packages, and the
// reference-only packages whose non-test code counts as a caller for
// unusedexport but which are not themselves analysed.
type Program struct {
	Packages []*Package
	Refs     []*Package

	// index is unusedexport's reference index, built on first use.
	index *programRefs
}

// referenceRoots are directories of the module holding modules of their
// own that call into it: perfbench builds its benchmark from this tree
// (replace phasemon => ../), so what it calls is in use.
var referenceRoots = []string{"perfbench"}

// LoadProgram loads the packages matching patterns, as Load does, and
// their references: the rest of the module when the patterns name only
// part of it, and each reference root that exists.
func LoadProgram(dir string, patterns ...string) (*Program, error) {
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	prog := &Program{Packages: pkgs}
	root, err := moduleRoot(dir)
	if err != nil {
		return nil, err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %v", err)
	}
	whole := len(patterns) == 0 || (len(patterns) == 1 && patterns[0] == "./...")
	var refDirs []string
	if abs != root || !whole {
		refDirs = append(refDirs, root)
	}
	for _, r := range referenceRoots {
		if _, err := os.Stat(filepath.Join(root, r, "go.mod")); err == nil {
			refDirs = append(refDirs, filepath.Join(root, r))
		}
	}
	for _, d := range refDirs {
		refs, err := Load(d, "./...")
		if err != nil {
			return nil, err
		}
		prog.Refs = append(prog.Refs, refs...)
	}
	return prog, nil
}

// moduleRoot returns the directory of the go.mod governing dir.
func moduleRoot(dir string) (string, error) {
	cmd := exec.Command("go", "env", "GOMOD")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("lint: go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("lint: %s is not inside a module", dir)
	}
	return filepath.Dir(gomod), nil
}

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load enumerates the packages matching patterns (relative to dir, an
// arbitrary directory inside the target module), type-checks their
// non-test sources, and returns them sorted by import path.
//
// Dependencies — including this module's own packages and the standard
// library — are resolved from compiler export data produced by
// `go list -export`, so loading is self-contained: no network, no
// GOPATH, no third-party driver. Only the pattern-matched packages
// themselves are parsed to syntax, which is what the analyzers need.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	exports := make(map[string]string, len(listed))
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	})

	var out []*Package
	for _, p := range listed {
		if p.DepOnly || p.Standard {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		pkg, err := checkPackage(fset, imp, p)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PkgPath < out[j].PkgPath })
	return out, nil
}

// goList runs `go list -e -export -deps -json` and decodes the
// package stream.
func goList(dir string, patterns []string) ([]listedPackage, error) {
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Name,Dir,GoFiles,Export,Standard,DepOnly,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list: %v\n%s", err, stderr.String())
	}
	var out []listedPackage
	dec := json.NewDecoder(&stdout)
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		out = append(out, p)
	}
	return out, nil
}

// checkPackage parses and type-checks one target package.
func checkPackage(fset *token.FileSet, imp types.Importer, p listedPackage) (*Package, error) {
	files := make([]*ast.File, 0, len(p.GoFiles))
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		files = append(files, f)
	}
	info := NewTypesInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(p.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", p.ImportPath, err)
	}
	return &Package{
		PkgPath:   p.ImportPath,
		Dir:       p.Dir,
		Fset:      fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}

// NewTypesInfo allocates the full set of type-checker result maps the
// analyzers consume.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}
