package lint_test

import (
	"testing"

	"phasemon/internal/lint"
)

// TestRepoIsLintClean runs the full analyzer suite over the module the
// way cmd/phasemonlint does and requires zero findings: the codebase
// must satisfy its own invariants. This is the test-suite form of the
// acceptance gate `go run ./cmd/phasemonlint ./...` exiting 0.
func TestRepoIsLintClean(t *testing.T) {
	prog, err := lint.LoadProgram("../..", "./...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	if len(prog.Packages) == 0 || len(prog.Refs) == 0 {
		t.Fatalf("LoadProgram returned %d packages and %d references", len(prog.Packages), len(prog.Refs))
	}
	for _, pkg := range prog.Packages {
		for _, a := range lint.All() {
			if a.Match != nil && !a.Match(pkg.PkgPath) {
				continue
			}
			diags, err := lint.RunAnalyzer(a, prog, pkg)
			if err != nil {
				t.Fatalf("%s on %s: %v", a.Name, pkg.PkgPath, err)
			}
			for _, d := range diags {
				t.Errorf("%s: %s: %s", pkg.Fset.Position(d.Pos), a.Name, d.Message)
			}
		}
	}
}
