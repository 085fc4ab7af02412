package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"phasemon/internal/experiments"
	"phasemon/internal/telemetry"
	"phasemon/internal/tournament"
)

// Batch job shapes. A grid job is a two-round tournament of the zoo at
// its size extremes on the paper workloads, 16384 then 32768 intervals
// a cell, with no elimination: which specs survive depends on the
// seed, and fixwindow_128 alone costs several others, so eliminating
// would make the job's size depend on the seed. A figures job is
// cmd/experiments at full length.
const (
	gridIntervals = 16384
	gridRounds    = 2
	gridTop       = 0
	batchWorkers  = 2
	minJobs       = 5 // jobs per run, however long they take
)

func gridConfig(seed int64, workers int, hub *telemetry.Hub) tournament.Config {
	return tournament.Config{
		Grid: tournament.Grid{
			Workloads: paperWorkloads,
			Specs:     gridSpecs,
			Intervals: gridIntervals,
			Seed:      seed,
		},
		Rounds:    gridRounds,
		TopK:      gridTop,
		Workers:   workers,
		Telemetry: hub,
	}
}

// leaderboard plays the grid tournament and encodes its leaderboard.
func leaderboard(cfg tournament.Config) ([]byte, error) {
	lb, err := tournament.Run(context.Background(), cfg)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	err = lb.Encode(&b)
	return b.Bytes(), err
}

// gridJob is the body of a grid job process: it announces the job's
// start on its first output line, then prints the leaderboard.
func gridJob(seed int64) error {
	cfg := gridConfig(seed, batchWorkers, nil)
	if err := cfg.Grid.Validate(); err != nil {
		return err
	}
	fmt.Println("grid: begin")
	b, err := leaderboard(cfg)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(b)
	return err
}

// jobStats collects the jobs of one batch run.
type jobStats struct {
	setup, run, cpu, rss []float64
	jobs, failed         int64
	wall                 time.Duration
}

// runJobs runs job until d has passed and at least minJobs ran, and
// checks each job's artifact against want.
func runJobs(d time.Duration, want []byte, job func() (childRun, error)) (jobStats, error) {
	var s jobStats
	t0 := time.Now()
	for s.jobs < minJobs || time.Since(t0) < d {
		r, err := job()
		if err != nil {
			return s, err
		}
		s.jobs++
		if !bytes.Equal(r.out, want) {
			s.failed++
		}
		s.setup = append(s.setup, r.setup.Seconds())
		s.run = append(s.run, r.run.Seconds())
		s.cpu = append(s.cpu, float64(r.cpu.Nanoseconds()))
		s.rss = append(s.rss, r.rssMB)
	}
	s.wall = time.Since(t0)
	return s, nil
}

// e2e summarises a batch run. A batch workload's sample is one job.
func (s jobStats) e2e() map[string]float64 {
	run := sortedCopy(s.run)
	p99, _ := tail(run, 0.99)
	return map[string]float64{
		"setup_s":           median(sortedCopy(s.setup)),
		"throughput_sps":    float64(s.jobs) / s.wall.Seconds(),
		"latency_p50_us":    median(run) * 1e6,
		"latency_p99_us":    p99 * 1e6,
		"cpu_ns_per_sample": median(sortedCopy(s.cpu)),
		"run_s":             median(run),
		"rss_mb":            median(sortedCopy(s.rss)),
	}
}

func (s jobStats) note(name string) string {
	_, used := tail(sortedCopy(s.run), 0.99)
	return fmt.Sprintf("%s: %d jobs, %d wrong; latency_p99_us is the p%.0f job wall", name, s.jobs, s.failed, used)
}

// gridWorkload times grid jobs, each a fresh process, against a
// -workers 1 reference leaderboard computed first.
func gridWorkload(e env) (outcome, error) {
	out := outcome{layers: newLayers()}
	want, err := leaderboard(gridConfig(e.seed, 1, nil))
	if err != nil {
		return out, fmt.Errorf("reference grid: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return out, err
	}
	seed := strconv.FormatInt(e.seed, 10)
	measured := e.seconds
	if e.trace {
		measured /= 2
	}
	js, err := runJobs(measured, want, func() (childRun, error) {
		return runChild(self, "-job", "grid", "-seed", seed)
	})
	if err != nil {
		return out, err
	}
	out.e2e, out.attempted, out.failed = js.e2e(), js.jobs, js.failed
	out.notes = append(out.notes, js.note("grid"))
	if !e.trace {
		return out, nil
	}

	// Traced: one job in this process with telemetry on.
	hub := telemetry.NewHub(6)
	var got []byte
	wall, err := e.tr.timed("tournament.run", func() error {
		var err error
		got, err = leaderboard(gridConfig(e.seed, batchWorkers, hub))
		return err
	})
	if err != nil {
		return out, err
	}
	out.attempted++
	if !bytes.Equal(got, want) {
		out.failed++
	}
	out.traced = map[string]float64{"run_s": float64(wall) / 1e9}
	busy := hub.FleetRunSeconds.Snapshot().Sum
	out.layers["fleet.busy_share"] = busy / (batchWorkers * float64(wall) / 1e9)
	hits, misses := float64(hub.WorkloadCacheHits.Value()), float64(hub.WorkloadCacheMisses.Value())
	if hits+misses > 0 {
		out.layers["wcache.hit_ratio"] = hits / (hits + misses)
	}
	return out, batchReplay(e, out.layers)
}

// figuresArgs is the figures job's command line after -workers.
func figuresArgs(seed int64, workers int) []string {
	return []string{"-run", strings.Join(figureNames, ","), "-workers", strconv.Itoa(workers),
		"-seed", strconv.FormatInt(seed, 10)}
}

// figuresWorkload times cmd/experiments processes against a -workers 1
// reference run first. Each job is a fresh process: experiments keeps
// a package-global trace cache, and users pay for filling it.
func figuresWorkload(e env) (outcome, error) {
	out := outcome{layers: newLayers()}
	exe := e.bin + "/experiments"
	ref, err := runChild(exe, figuresArgs(e.seed, 1)...)
	if err != nil {
		return out, fmt.Errorf("reference figures: %w", err)
	}
	want := ref.out
	measured := e.seconds
	if e.trace {
		measured /= 2
	}
	js, err := runJobs(measured, want, func() (childRun, error) {
		r, err := runChild(exe, figuresArgs(e.seed, batchWorkers)...)
		if err == nil && r.first != ref.first {
			r.out = nil // a wrong first line fails the check
		}
		return r, err
	})
	if err != nil {
		return out, err
	}
	out.e2e, out.attempted, out.failed = js.e2e(), js.jobs, js.failed
	out.notes = append(out.notes, js.note("figures"))
	if !e.trace {
		return out, nil
	}

	// Traced: each figure's public entry point, in this process, in the
	// job's order, so the trace cache fills as it does for the CLI.
	o := experiments.Options{Seed: e.seed, Workers: batchWorkers}
	figs := []func() error{
		func() error { _, err := experiments.Figure3(o); return err },
		func() error { _, err := experiments.Figure4(o); return err },
		func() error { _, err := experiments.Figure5(o); return err },
		func() error { _, err := experiments.Figure11(o); return err },
		func() error { _, err := experiments.Figure12(o); return err },
		func() error { _, err := experiments.Figure13(o); return err },
		func() error { _, err := experiments.Headline(o); return err },
	}
	var total int64
	for i, fig := range figs {
		ns, err := e.tr.timed("experiments."+figureNames[i], fig)
		if err != nil {
			return out, fmt.Errorf("%s: %w", figureNames[i], err)
		}
		out.layers["experiments."+figureNames[i]+"_s"] = float64(ns) / 1e9
		total += ns
	}
	out.traced = map[string]float64{"run_s": float64(total) / 1e9}
	return out, batchReplay(e, out.layers)
}

// batchReplay replays the paper traces a batch job reads through the
// per-spec layers.
func batchReplay(e env, layers map[string]float64) error {
	traces, err := prepareTraces(e.seed, len(paperWorkloads), replayLength, newCache())
	if err != nil {
		return err
	}
	return replayCommon(e.tr, layers, e.seed, traces)
}
