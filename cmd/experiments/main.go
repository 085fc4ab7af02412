// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -run fig4
//	experiments -run all -intervals 1000
//
// Each experiment prints a text rendering of the corresponding paper
// artifact; the mapping is indexed in DESIGN.md and the measured
// values are discussed against the paper's in EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"phasemon/internal/experiments"
)

// selectRunners resolves the -run flag: a group keyword or a
// comma-separated list of experiment names.
func selectRunners(run string) ([]experiments.Runner, error) {
	switch run {
	case "all":
		return experiments.Registry(), nil
	case "extensions":
		return experiments.Extensions(), nil
	case "everything":
		return append(experiments.Registry(), experiments.Extensions()...), nil
	}
	var runners []experiments.Runner
	for _, name := range strings.Split(run, ",") {
		r, err := experiments.LookupAny(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		runners = append(runners, r)
	}
	return runners, nil
}

func main() {
	var (
		run       = flag.String("run", "all", "experiment to run (e.g. table1, fig4, ext-dtm), comma-separated, or 'all'/'extensions'/'everything'")
		intervals = flag.Int("intervals", 0, "override per-benchmark run length in sampling intervals (0 = full length)")
		seed      = flag.Int64("seed", 1, "workload generator seed")
		workers   = flag.Int("workers", 0, "concurrent runs within each figure: benchmarks in fig3-fig5, governed runs in fig11-fig13 and headline (0 = GOMAXPROCS); results are identical at any worker count")
		list      = flag.Bool("list", false, "list available experiments and exit")
		csvDir    = flag.String("csvdir", "", "also export the figure datasets as CSV files into this directory")
	)
	flag.Parse()

	if *list {
		for _, r := range experiments.Registry() {
			fmt.Printf("%-22s %s\n", r.Name, r.Title)
		}
		for _, r := range experiments.Extensions() {
			fmt.Printf("%-22s %s\n", r.Name, r.Title)
		}
		return
	}

	// One Cache serves every experiment and the CSV export, so no
	// trace, observation stream, governed run or figure is computed
	// twice in one invocation.
	opts := experiments.Options{Intervals: *intervals, Seed: *seed, Workers: *workers, Cache: experiments.NewCache()}

	runners, err := selectRunners(*run)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	for _, r := range runners {
		fmt.Printf("=== %s — %s ===\n", r.Name, r.Title)
		if err := r.Run(opts, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", r.Name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	if *csvDir != "" {
		if err := experiments.ExportCSV(opts, *csvDir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("figure datasets exported to %s\n", *csvDir)
	}
}
