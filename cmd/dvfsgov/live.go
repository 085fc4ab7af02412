package main

import (
	"fmt"
	"time"

	"phasemon/internal/core"
	"phasemon/internal/cpufreq"
	"phasemon/internal/governor"
	"phasemon/internal/perfevent"
	"phasemon/internal/phase"
	"phasemon/internal/telemetry"
)

// runLive is the real-hardware deployment: live counters in
// (perf_event_open), live frequency settings out (cpufreq sysfs) —
// the paper's complete loop in userspace. It predicts with the
// predictor spec policy names; the oracle, which reads phases that
// have not happened yet, is refused. It needs counter access and
// a writable `userspace` cpufreq governor; each missing capability is
// reported plainly. Telemetry always observes the loop, which folds
// each interval's (sample, actual, next) into its own StepBatch under
// one clock reading and publishes it: a one-line hub summary prints
// every telemetryEvery intervals (0 disables), and telemetryAddr, when
// non-empty, additionally serves the hub over HTTP for the duration of
// the run.
func runLive(dur, period time.Duration, pid int, policy, telemetryAddr string, telemetryEvery int) error {
	if governor.ReadsFuture(policy) {
		return fmt.Errorf("live mode cannot follow the oracle: it reads phases that have not happened yet")
	}
	cls := phase.Default()
	pred, err := core.NewPredictorFromSpec(policy, core.SpecEnv{Classifier: cls})
	if err != nil {
		return err
	}
	if err := perfevent.Available(); err != nil {
		return fmt.Errorf("live mode needs hardware counters: %w", err)
	}
	iface, err := cpufreq.Open(cpufreq.DefaultConfig())
	if err != nil {
		return fmt.Errorf("live mode needs the cpufreq interface: %w", err)
	}
	act, err := cpufreq.NewActuator(iface)
	if err != nil {
		return err
	}
	if gov, err := iface.Governor(); err == nil && gov != "userspace" {
		fmt.Printf("note: scaling governor is %q; frequency writes need `userspace`\n", gov)
	}

	mon, err := core.NewMonitor(cls, pred)
	if err != nil {
		return err
	}
	hub := telemetry.NewHub(cls.NumPhases())
	if telemetryAddr != "" {
		stop, err := serveTelemetry(hub, telemetryAddr)
		if err != nil {
			return err
		}
		defer stop()
	}

	g, err := perfevent.Open(pid)
	if err != nil {
		return err
	}
	defer g.Close()
	stop := make(chan struct{})
	samples, err := g.Samples(stop, period)
	if err != nil {
		return err
	}
	timer := time.AfterFunc(dur, func() { close(stop) })
	defer timer.Stop()

	fmt.Printf("live governing pid %d for %v over %d frequency settings\n", pid, dur, act.Len())
	fmt.Println("interval  miss/instr   phase   next   setting[kHz]")
	tel := hub.NewStepBatch()
	var prev, pending phase.ID
	i := 0
	lastSetting := -1
	for s := range samples {
		nowNs := hub.Now().UnixNano()
		hits, misses := core.PHTLookups(pred)
		actual, next := mon.Step(s)
		nowHits, nowMisses := core.PHTLookups(pred)
		tel.GPHTLookups(nowHits-hits, nowMisses-misses)
		tel.Fold(i, s.MemPerUop, int(prev), int(pending), int(actual), int(next), nowNs)
		prev, pending = actual, next
		setting := settingFor(next, cls.NumPhases(), act.Len())
		applyErr := act.Set(setting)
		if applyErr == nil && setting != lastSetting {
			tel.DVFSChange(i, lastSetting, setting, nowNs)
			lastSetting = setting
		}
		tel.PMISample(i, s.MemPerUop, s.UPC, nowNs)
		tel.Publish()
		khz, _ := act.FrequencyKHz(setting)
		status := ""
		if applyErr != nil {
			status = "  (set failed: " + applyErr.Error() + ")"
		}
		fmt.Printf("%8d  %10.5f   %-5s   %-5s  %11d%s\n", i, s.MemPerUop, actual, next, khz, status)
		i++
		if telemetryEvery > 0 && i%telemetryEvery == 0 {
			fmt.Println("telemetry:", hub.Summary())
		}
	}
	if acc, err := mon.Tally().Accuracy(); err == nil {
		fmt.Printf("\nlive prediction accuracy over %d intervals: %.1f%%\n", i, acc*100)
	}
	fmt.Println("telemetry:", hub.Summary())
	return nil
}

// settingFor spreads the phase range across however many settings the
// real ladder exposes: phase 1 at the fastest, the top phase at the
// slowest, linear in between.
func settingFor(p phase.ID, numPhases, numSettings int) int {
	if numSettings < 1 {
		return 0
	}
	if !p.Valid(numPhases) || numPhases < 2 {
		return 0
	}
	return int(p-1) * (numSettings - 1) / (numPhases - 1)
}
