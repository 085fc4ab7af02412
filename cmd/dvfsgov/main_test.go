package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"phasemon/internal/fleet"
	"phasemon/internal/governor"
	"phasemon/internal/phase"
	"phasemon/internal/workload"
)

func TestRunPolicies(t *testing.T) {
	for _, policy := range []string{"gpht", "reactive", "oracle"} {
		if err := run(io.Discard, "applu_in", policy, 40, 1, false, 0, "", 0); err != nil {
			t.Errorf("policy %s: %v", policy, err)
		}
	}
}

func TestRunCompareMode(t *testing.T) {
	if err := run(io.Discard, "swim_in", "gpht", 40, 1, true, 0, "", 0); err != nil {
		t.Fatal(err)
	}
}

// referenceTable prints the compare-mode table the way it was built
// before runs became replays reduced to rows on the fleet workers:
// from the full governor results of serial runs on the machine.
func referenceTable(t *testing.T, bench string, intervals int, seed int64, bound float64) string {
	t.Helper()
	prof, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	var cfg governor.Config
	if bound > 0 {
		if cfg.Translation, err = fleet.BoundedTranslation(bound, nil); err != nil {
			t.Fatal(err)
		}
	}
	var runs []*governor.Result
	for _, ps := range []string{"baseline", "reactive", "gpht_8_128"} {
		pol, err := governor.PolicyFromSpec(ps)
		if err != nil {
			t.Fatal(err)
		}
		gen := prof.Generator(workload.Params{Seed: seed, Intervals: intervals})
		r, err := governor.RunContext(context.Background(), gen, pol, cfg)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, r)
	}
	var b strings.Builder
	base := runs[0]
	fmt.Fprintf(&b, "benchmark: %s (%s)\n\n", prof.Name, prof.Quadrant)
	fmt.Fprintf(&b, "%-16s %10s %10s %8s %12s %9s %9s %9s %8s\n",
		"policy", "time[s]", "energy[J]", "BIPS", "EDP[Js]", "EDPimpr", "perfdeg", "powersav", "acc")
	for _, r := range runs {
		acc := "-"
		if a, err := r.Accuracy.Accuracy(); err == nil {
			acc = fmt.Sprintf("%.1f%%", a*100)
		}
		fmt.Fprintf(&b, "%-16s %10.3f %10.2f %8.3f %12.2f %8.1f%% %8.1f%% %8.1f%% %8s\n",
			r.Policy, r.Run.TimeS, r.Run.EnergyJ, r.Run.BIPS(), r.EDP(),
			governor.EDPImprovement(base, r)*100,
			governor.PerformanceDegradation(base, r)*100,
			governor.PowerSavings(base, r)*100,
			acc)
	}
	return b.String()
}

// TestCompareTableMatchesFullResults: the compare-mode table, built
// from per-run rows, is byte-identical to one built from full results.
func TestCompareTableMatchesFullResults(t *testing.T) {
	for _, bound := range []float64{0, 0.05} {
		for _, workers := range []int{1, 3} {
			var got bytes.Buffer
			if err := run(&got, "swim_in", "gpht", 300, 7, true, bound, "", workers); err != nil {
				t.Fatal(err)
			}
			want := referenceTable(t, "swim_in", 300, 7, bound)
			if !strings.HasSuffix(got.String(), want) {
				t.Errorf("bound=%v workers=%d: table differs\n--- got\n%s--- want (suffix)\n%s", bound, workers, got.String(), want)
			}
		}
	}
}

func TestRunBoundedMode(t *testing.T) {
	if err := run(io.Discard, "applu_in", "gpht", 40, 1, false, 0.05, "", 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(io.Discard, "no_such", "gpht", 10, 1, false, 0, "", 0); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if err := run(io.Discard, "applu_in", "bogus", 10, 1, false, 0, "", 0); err == nil {
		t.Error("unknown policy accepted")
	}
	if err := run(io.Discard, "applu_in", "gpht_0_128", 10, 1, false, 0, "", 0); err == nil {
		t.Error("invalid GPHT geometry accepted")
	}
}

// TestRunLiveRefusesOracle: live mode builds its predictor from the
// -policy spec, and refuses the oracle and unknown specs before it
// touches the hardware.
func TestRunLiveRefusesOracle(t *testing.T) {
	for _, policy := range []string{"oracle", "bogus"} {
		if err := runLive(time.Millisecond, time.Millisecond, 0, policy, "", 0); err == nil {
			t.Errorf("policy %s accepted", policy)
		} else if strings.Contains(err.Error(), "live mode needs") {
			t.Errorf("policy %s reached the hardware checks: %v", policy, err)
		}
	}
}

func TestSettingForSpreadsPhases(t *testing.T) {
	// Six phases over six settings: identity.
	for p := 1; p <= 6; p++ {
		if got := settingFor(phase.ID(p), 6, 6); got != p-1 {
			t.Errorf("settingFor(%d,6,6) = %d", p, got)
		}
	}
	// Six phases over two settings: bottom half fast, top half slow.
	if settingFor(1, 6, 2) != 0 || settingFor(6, 6, 2) != 1 {
		t.Error("two-setting spread wrong at extremes")
	}
	// Degenerate inputs stay at the fastest setting.
	if settingFor(0, 6, 6) != 0 || settingFor(3, 1, 6) != 0 || settingFor(3, 6, 0) != 0 {
		t.Error("degenerate inputs not clamped")
	}
	// Never out of range for any combination.
	for p := 1; p <= 6; p++ {
		for n := 1; n <= 10; n++ {
			s := settingFor(phase.ID(p), 6, n)
			if s < 0 || s >= n {
				t.Fatalf("settingFor(%d,6,%d) = %d out of range", p, n, s)
			}
		}
	}
}
