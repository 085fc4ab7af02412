package main

import (
	"fmt"
	"time"

	"phasemon/internal/core"
	"phasemon/internal/perfevent"
	"phasemon/internal/phase"
	"phasemon/internal/telemetry"
)

// runLive monitors real hardware counters through perf_event_open for
// the given duration, classifying LLC-misses-per-instruction into the
// paper's phases and predicting live — the paper's deployment mode, on
// whatever machine this runs on. pid 0 monitors this process; withLoad
// adds a synthetic memory-walking load so a bare invocation has
// something to observe. A non-nil hub observes every interval — the
// loop records each into its own StepBatch under one clock reading and
// publishes it — and is typically served over HTTP for the duration of
// the run.
func runLive(pred core.Predictor, dur, period time.Duration, pid int, withLoad bool, hub *telemetry.Hub) error {
	if err := perfevent.Available(); err != nil {
		return fmt.Errorf("live mode needs hardware counter access (try the simulated mode instead): %w", err)
	}
	g, err := perfevent.Open(pid)
	if err != nil {
		return err
	}
	defer g.Close()

	mon, err := core.NewMonitor(phase.Default(), pred)
	if err != nil {
		return err
	}

	stop := make(chan struct{})
	samples, err := g.Samples(stop, period)
	if err != nil {
		return err
	}

	loadStop := make(chan struct{})
	if withLoad {
		go syntheticLoad(loadStop)
		defer close(loadStop)
	}

	timer := time.AfterFunc(dur, func() { close(stop) })
	defer timer.Stop()

	fmt.Printf("live monitoring pid %d for %v (sampling every %v)\n", pid, dur, period)
	fmt.Println("interval  miss/instr   phase   predicted-next")
	tel := hub.NewStepBatch()
	i := 0
	for s := range samples {
		var nowNs int64
		if hub != nil {
			nowNs = hub.Now().UnixNano()
		}
		actual, next := mon.StepAt(s, tel, nowNs)
		tel.PMISample(i, s.MemPerUop, s.UPC, nowNs)
		tel.Publish()
		fmt.Printf("%8d  %10.5f   %-5s   %s\n", i, s.MemPerUop, actual, next)
		i++
	}
	if acc, err := mon.Tally().Accuracy(); err == nil {
		fmt.Printf("\nlive prediction accuracy over %d intervals: %.1f%%\n", i, acc*100)
	}
	if hub != nil {
		fmt.Println("telemetry:", hub.Summary())
	}
	return nil
}

// syntheticLoad alternates compute-bound and memory-walking sections
// so the live counters show phase behavior.
func syntheticLoad(stop <-chan struct{}) {
	buf := make([]byte, 64<<20)
	sum := 0
	for {
		// Compute section.
		for i := 0; i < 20_000_000; i++ {
			sum += i * i
			if i%5_000_000 == 0 {
				select {
				case <-stop:
					return
				default:
				}
			}
		}
		// Memory-walk section: stride past cache lines over a large
		// buffer.
		for pass := 0; pass < 4; pass++ {
			for i := 0; i < len(buf); i += 64 {
				sum += int(buf[i])
				buf[i]++
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}
}
