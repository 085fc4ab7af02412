package lint

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// UnusedExportAnalyzer flags exported package-level functions and
// methods that no non-test code of the program refers to. It is a
// whole-program check: a reference is any TypesInfo.Uses or Selections
// entry in any package of pass.Program, analysed or reference-only.
//
// Objects are matched by their origin's full name, not by pointer:
// each package is type-checked from source but imports its
// dependencies from export data, so one function has a types.Func per
// load. A method also counts as used when its name and signature match
// a method of an interface declared in, or imported by, a package of
// the program (or the universe's error): calls through an interface
// never name the concrete method, and types.Implements does not work
// across loads.
var UnusedExportAnalyzer = &Analyzer{
	Name: unusedExportName,
	Doc:  "exported functions and methods must have a non-test caller in the module or perfbench",
	Run:  runUnusedExport,
}

const unusedExportName = "unusedexport"

func runUnusedExport(pass *Pass) error {
	refs := pass.Program.references()
	for _, f := range pass.Files {
		escaped := reasonedEscapes(pass, f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok || refs.funcs[fn.FullName()] {
				continue
			}
			sig := fn.Type().(*types.Signature)
			if sig.Recv() != nil && refs.ifaceMethods[methodKey(fn.Name(), sig)] {
				continue
			}
			line := pass.Fset.Position(fd.Name.Pos()).Line
			if escaped[line] || escaped[line-1] {
				continue
			}
			pass.Reportf(fd.Name.Pos(), "%s is exported but no non-test code refers to it: delete it or add //lint:unusedexport <reason>", fn.FullName())
		}
	}
	return nil
}

// reasonedEscapes returns the lines of f holding a //lint:unusedexport
// directive followed by a reason; one without a reason suppresses
// nothing.
func reasonedEscapes(pass *Pass, f *ast.File) map[int]bool {
	lines := make(map[int]bool)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			hasReason := len(strings.Fields(c.Text)) > 1
			if !hasReason || !slices.Contains(directiveNames(c.Text), unusedExportName) {
				continue
			}
			lines[pass.Fset.Position(c.Pos()).Line] = true
		}
	}
	return lines
}

// programRefs is the reference index of a Program.
type programRefs struct {
	// funcs holds the full name of every function or method some
	// package refers to.
	funcs map[string]bool
	// ifaceMethods holds the methodKey of every interface method in
	// reach of the program.
	ifaceMethods map[string]bool
}

// references builds the program's reference index on first use.
func (p *Program) references() *programRefs {
	if p.index != nil {
		return p.index
	}
	r := &programRefs{funcs: make(map[string]bool), ifaceMethods: make(map[string]bool)}
	addIface(r, types.Universe.Lookup("error").Type())
	seen := make(map[*types.Package]bool)
	for _, pkgs := range [][]*Package{p.Packages, p.Refs} {
		for _, pkg := range pkgs {
			for _, obj := range pkg.TypesInfo.Uses {
				if fn, ok := obj.(*types.Func); ok {
					r.funcs[fn.Origin().FullName()] = true
				}
			}
			for _, sel := range pkg.TypesInfo.Selections {
				if fn, ok := sel.Obj().(*types.Func); ok {
					r.funcs[fn.Origin().FullName()] = true
				}
			}
			// Interface literals, e.g. in a type assertion.
			for _, tv := range pkg.TypesInfo.Types {
				addIface(r, tv.Type)
			}
			addPackageIfaces(r, pkg.Types, seen)
		}
	}
	p.index = r
	return r
}

// addPackageIfaces records the methods of every interface type
// declared at package level in pkg or in a package it imports.
func addPackageIfaces(r *programRefs, pkg *types.Package, seen map[*types.Package]bool) {
	if seen[pkg] {
		return
	}
	seen[pkg] = true
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			addIface(r, tn.Type())
		}
	}
	for _, imp := range pkg.Imports() {
		addPackageIfaces(r, imp, seen)
	}
}

func addIface(r *programRefs, t types.Type) {
	if t == nil {
		return
	}
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		r.ifaceMethods[methodKey(m.Name(), m.Type().(*types.Signature))] = true
	}
}

// methodKey renders a method's name and its signature without
// parameter names or receiver, e.g.
// "HandlePMI(*phasemon/internal/machine.Machine)(float64)".
func methodKey(name string, sig *types.Signature) string {
	var b strings.Builder
	b.WriteString(name)
	for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tup.Len(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(types.TypeString(tup.At(i).Type(), nil))
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}
