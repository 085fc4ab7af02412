// Command phasemonlint runs the repo's custom static-analysis suite —
// the machine-checkable form of the invariants the paper's results
// rest on. See internal/lint for the analyzers and DESIGN.md §8 and
// §13 for the rationale.
//
// Usage:
//
//	phasemonlint [-analyzers list] [-list] [-json] [-o path] [packages...]
//
// Packages default to ./... and accept the go tool's pattern syntax.
// -json emits findings as a JSON array of {file, line, col, analyzer,
// message} objects, sorted by position then analyzer, so CI can
// archive and diff them; -o redirects the report (text or JSON) to a
// file, still printing the findings count to stderr.
//
// Exit status:
//
//	0  no findings
//	1  at least one finding was reported
//	2  usage error, or failure to load or analyze packages
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"phasemon/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// finding is one diagnostic in the machine-readable report.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("phasemonlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		only    = fs.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
		list    = fs.Bool("list", false, "list available analyzers and exit")
		jsonOut = fs.Bool("json", false, "report findings as a JSON array instead of text")
		outPath = fs.String("o", "", "write the report to this file instead of stdout")
		verbose = fs.Bool("v", false, "report per-package progress")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		analyzers = selectAnalyzers(analyzers, *only)
		if len(analyzers) == 0 {
			fmt.Fprintf(stderr, "phasemonlint: no analyzers match %q\n", *only)
			return 2
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	prog, err := lint.LoadProgram(".", patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "phasemonlint: %v\n", err)
		return 2
	}

	var findings []finding
	for _, pkg := range prog.Packages {
		for _, a := range analyzers {
			if a.Match != nil && !a.Match(pkg.PkgPath) {
				continue
			}
			if *verbose {
				fmt.Fprintf(stderr, "phasemonlint: %s %s\n", a.Name, pkg.PkgPath)
			}
			diags, err := lint.RunAnalyzer(a, prog, pkg)
			if err != nil {
				fmt.Fprintf(stderr, "phasemonlint: %v\n", err)
				return 2
			}
			for _, d := range diags {
				pos := pkg.Fset.Position(d.Pos)
				findings = append(findings, finding{
					File:     pos.Filename,
					Line:     pos.Line,
					Col:      pos.Column,
					Analyzer: a.Name,
					Message:  d.Message,
				})
			}
		}
	}
	// A total order over findings keeps reports byte-stable across runs
	// and package-load order, so CI artifacts diff cleanly.
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})

	out := stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintf(stderr, "phasemonlint: %v\n", err)
			return 2
		}
		defer f.Close()
		out = f
	}
	if err := report(out, findings, *jsonOut); err != nil {
		fmt.Fprintf(stderr, "phasemonlint: %v\n", err)
		return 2
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "phasemonlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// report renders the findings as text ("file:line:col: analyzer:
// message" lines) or as a JSON array. The empty report is "" in text
// mode and "[]" in JSON mode, so a clean run still produces a valid
// document for tooling.
func report(w io.Writer, findings []finding, asJSON bool) error {
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []finding{}
		}
		return enc.Encode(findings)
	}
	for _, f := range findings {
		if _, err := fmt.Fprintf(w, "%s:%d:%d: %s: %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message); err != nil {
			return err
		}
	}
	return nil
}

func selectAnalyzers(all []*lint.Analyzer, spec string) []*lint.Analyzer {
	want := make(map[string]bool)
	for _, name := range strings.Split(spec, ",") {
		if name = strings.TrimSpace(name); name != "" {
			want[name] = true
		}
	}
	var out []*lint.Analyzer
	for _, a := range all {
		if want[a.Name] {
			out = append(out, a)
		}
	}
	return out
}
