package dvfs

import (
	"math"
	"strings"
	"testing"

	"phasemon/internal/cpusim"
	"phasemon/internal/phase"
)

func TestPentiumMMatchesPaperTable2(t *testing.T) {
	l := PentiumM()
	want := []OperatingPoint{
		{1500e6, 1.484},
		{1400e6, 1.452},
		{1200e6, 1.356},
		{1000e6, 1.228},
		{800e6, 1.116},
		{600e6, 0.956},
	}
	if l.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", l.Len(), len(want))
	}
	for i, w := range want {
		if got := l.Point(Setting(i)); got != w {
			t.Errorf("point %d = %v, want %v", i, got, w)
		}
	}
	if l.Fastest() != 0 || l.Slowest() != 5 {
		t.Errorf("Fastest/Slowest = %d/%d", l.Fastest(), l.Slowest())
	}
}

func TestNewLadderValidation(t *testing.T) {
	bad := [][]OperatingPoint{
		nil,
		{},
		{{0, 1}},
		{{1e9, 0}},
		{{1e9, -1}},
		{{1e9, 1}, {1e9, 0.9}},      // equal frequency
		{{1e9, 1}, {1.2e9, 1.1}},    // ascending frequency
		{{math.Inf(1), 1}},          // infinite
		{{1e9, 1}, {math.NaN(), 1}}, // NaN
		// Duplicate within ApproxEqual tolerance: the same physical
		// frequency arrived at through different arithmetic.
		{{1e9, 1}, {1e9 * (1 - 1e-14), 0.9}},
		// Voltage rising as frequency falls.
		{{1e9, 1.0}, {8e8, 1.2}},
		{{1e9, 1.0}, {8e8, 0.9}, {6e8, 0.95}},
	}
	for i, pts := range bad {
		if _, err := NewLadder("x", pts); err == nil {
			t.Errorf("case %d: expected error for %v", i, pts)
		}
	}
	// Flat voltage across points is legal: real tables plateau.
	if _, err := NewLadder("flat", []OperatingPoint{{1e9, 1.0}, {8e8, 1.0}}); err != nil {
		t.Errorf("flat-voltage ladder rejected: %v", err)
	}
}

func TestNamedSettingsIndexPentiumM(t *testing.T) {
	l := PentiumM()
	want := map[Setting]float64{
		SpeedStep1500: 1500e6,
		SpeedStep1400: 1400e6,
		SpeedStep1200: 1200e6,
		SpeedStep1000: 1000e6,
		SpeedStep800:  800e6,
		SpeedStep600:  600e6,
	}
	if len(want) != l.Len() {
		t.Fatalf("%d named settings for %d ladder points", len(want), l.Len())
	}
	for s, hz := range want {
		if got := l.Point(s).FrequencyHz; got != hz {
			t.Errorf("Point(%d).FrequencyHz = %v, want %v", s, got, hz)
		}
	}
}

func TestClassSettingMonotonic(t *testing.T) {
	l := PentiumM()
	prev := math.Inf(1)
	for c := phase.ClassCPUBound; c <= phase.ClassMemoryBound; c++ {
		s := ClassSetting(c)
		if !l.ValidSetting(s) {
			t.Fatalf("ClassSetting(%v) = %d invalid for Pentium-M ladder", c, s)
		}
		f := l.Point(s).FrequencyHz
		if f > prev {
			t.Errorf("ClassSetting(%v) speeds up to %v Hz; must not rise with memory-boundedness", c, f)
		}
		prev = f
	}
	if got := ClassSetting(phase.ClassUnknown); got != l.Fastest() {
		t.Errorf("ClassSetting(ClassUnknown) = %d, want fastest %d", got, l.Fastest())
	}
}

func TestLadderPointPanicsOnBadSetting(t *testing.T) {
	l := PentiumM()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.Point(Setting(99))
}

func TestFrequenciesCopy(t *testing.T) {
	l := PentiumM()
	f := l.Frequencies()
	if len(f) != 6 || f[0] != 1500e6 || f[5] != 600e6 {
		t.Fatalf("Frequencies = %v", f)
	}
	f[0] = 1
	if l.Point(0).FrequencyHz != 1500e6 {
		t.Error("mutating Frequencies() result affected ladder")
	}
}

func TestIdentityTranslation(t *testing.T) {
	l := PentiumM()
	tr, err := Identity(l, 6)
	if err != nil {
		t.Fatal(err)
	}
	for p := 1; p <= 6; p++ {
		if got := tr.Setting(phase.ID(p)); got != Setting(p-1) {
			t.Errorf("phase %d -> setting %d, want %d", p, got, p-1)
		}
	}
	// Unknown phases fall back to fastest.
	for _, p := range []phase.ID{phase.None, -3, 7, 100} {
		if got := tr.Setting(p); got != l.Fastest() {
			t.Errorf("phase %v -> setting %d, want fastest", p, got)
		}
	}
	if _, err := Identity(l, 4); err == nil {
		t.Error("Identity with mismatched phase count should fail")
	}
}

func TestNewTranslationValidation(t *testing.T) {
	l := PentiumM()
	if _, err := NewTranslation(l, 0, nil); err == nil {
		t.Error("expected error for zero phases")
	}
	if _, err := NewTranslation(l, 3, []Setting{0, 1}); err == nil {
		t.Error("expected error for length mismatch")
	}
	if _, err := NewTranslation(l, 2, []Setting{0, 9}); err == nil {
		t.Error("expected error for invalid setting")
	}
	tr, err := NewTranslation(l, 2, []Setting{5, 0})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Setting(1) != 5 || tr.Setting(2) != 0 {
		t.Error("custom mapping not honored")
	}
	if tr.NumPhases() != 2 {
		t.Errorf("NumPhases = %d", tr.NumPhases())
	}
	if tr.Ladder() != l {
		t.Error("Ladder() identity")
	}
}

func TestTranslationDescribe(t *testing.T) {
	l := PentiumM()
	tr, _ := Identity(l, 6)
	d := tr.Describe(phase.Default())
	for _, want := range []string{"1500 MHz", "600 MHz", "1484 mV", "956 mV", "> 0.030", "< 0.005"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe missing %q:\n%s", want, d)
		}
	}
}

func TestControllerTransitions(t *testing.T) {
	l := PentiumM()
	c := NewController(l, 50e-6)
	if c.Current() != l.Fastest() {
		t.Fatalf("initial setting = %d", c.Current())
	}
	// Same-setting writes are free (Figure 8's "same as current?" check).
	cost, err := c.Set(l.Fastest())
	if err != nil || cost != 0 {
		t.Errorf("no-op set: cost=%v err=%v", cost, err)
	}
	if c.Transitions() != 0 {
		t.Errorf("no-op counted as transition")
	}
	cost, err = c.Set(3)
	if err != nil || cost != 50e-6 {
		t.Errorf("transition: cost=%v err=%v", cost, err)
	}
	if c.Current() != 3 || c.Transitions() != 1 || c.TimeInTransition() != 50e-6 {
		t.Errorf("state after transition: cur=%d n=%d t=%v", c.Current(), c.Transitions(), c.TimeInTransition())
	}
	if _, err := c.Set(Setting(17)); err == nil {
		t.Error("expected error for invalid setting")
	}
	if c.Point() != l.Point(3) {
		t.Errorf("Point = %v", c.Point())
	}
	c.Reset()
	if c.Current() != 0 || c.Transitions() != 0 || c.TimeInTransition() != 0 {
		t.Error("Reset did not clear state")
	}
}

func TestControllerNegativeLatencyClamped(t *testing.T) {
	c := NewController(PentiumM(), -5)
	cost, _ := c.Set(1)
	if cost != 0 {
		t.Errorf("cost = %v, want 0", cost)
	}
}

func TestDeriveBoundedRespectsBound(t *testing.T) {
	l := PentiumM()
	tab := phase.Default()
	model := cpusim.New(cpusim.DefaultConfig())
	const maxDeg = 0.05
	tr, err := DeriveBounded(l, tab, model.Slowdown, maxDeg, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	fmax := l.Point(l.Fastest()).FrequencyHz
	prev := Setting(-1)
	for p := 1; p <= tab.NumPhases(); p++ {
		s := tr.Setting(phase.ID(p))
		lo, _ := tab.Range(phase.ID(p))
		slow := model.Slowdown(lo, 1.5, l.Point(s).FrequencyHz, fmax)
		if slow > 1+maxDeg+1e-12 {
			t.Errorf("phase %d: chosen setting %d has slowdown %.4f > bound", p, s, slow)
		}
		if s < prev {
			t.Errorf("phase %d: setting %d below previous %d (not monotone)", p, s, prev)
		}
		prev = s
	}
	// Phase 1 (CPU-bound corner, mem/uop 0) cannot be slowed at all
	// within 5%, so it must stay at the fastest point.
	if tr.Setting(1) != l.Fastest() {
		t.Errorf("phase 1 setting = %d, want fastest", tr.Setting(1))
	}
}

func TestDeriveBoundedExtremes(t *testing.T) {
	l := PentiumM()
	tab := phase.Default()
	model := cpusim.New(cpusim.DefaultConfig())
	// Zero bound: everything runs at full speed.
	tr, err := DeriveBounded(l, tab, model.Slowdown, 0, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	for p := 1; p <= 6; p++ {
		if tr.Setting(phase.ID(p)) != l.Fastest() {
			t.Errorf("zero bound: phase %d not fastest", p)
		}
	}
	// Enormous bound: everything may run at the slowest point.
	tr, err = DeriveBounded(l, tab, model.Slowdown, 10, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	for p := 1; p <= 6; p++ {
		if tr.Setting(phase.ID(p)) != l.Slowest() {
			t.Errorf("huge bound: phase %d not slowest", p)
		}
	}
	if _, err := DeriveBounded(l, tab, model.Slowdown, -1, 1.5); err == nil {
		t.Error("expected error for negative bound")
	}
}

func TestDeriveBoundedLessAggressiveThanIdentity(t *testing.T) {
	// The conservative table trades power savings for a performance
	// guarantee, so each phase's setting is at least as fast as the
	// identity (Table 2) mapping's.
	l := PentiumM()
	tab := phase.Default()
	model := cpusim.New(cpusim.DefaultConfig())
	id, _ := Identity(l, 6)
	tr, err := DeriveBounded(l, tab, model.Slowdown, 0.05, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	for p := 1; p <= 6; p++ {
		if tr.Setting(phase.ID(p)) > id.Setting(phase.ID(p)) {
			t.Errorf("phase %d: conservative setting %d slower than identity %d",
				p, tr.Setting(phase.ID(p)), id.Setting(phase.ID(p)))
		}
	}
}

func TestOperatingPointString(t *testing.T) {
	s := OperatingPoint{1500e6, 1.484}.String()
	if !strings.Contains(s, "1500 MHz") || !strings.Contains(s, "1484 mV") {
		t.Errorf("String = %q", s)
	}
}

func TestLadderFromFrequencies(t *testing.T) {
	l, err := LadderFromFrequencies("real", []float64{600e6, 1500e6, 1000e6}, 0.95, 1.48)
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
	// Sorted fastest first with interpolated voltages at the endpoints.
	top, bottom := l.Point(0), l.Point(2)
	if top.FrequencyHz != 1500e6 || math.Abs(top.VoltageV-1.48) > 1e-12 {
		t.Errorf("top point %v", top)
	}
	if bottom.FrequencyHz != 600e6 || math.Abs(bottom.VoltageV-0.95) > 1e-12 {
		t.Errorf("bottom point %v", bottom)
	}
	// Mid frequency interpolates linearly: (1000-600)/(1500-600) of range.
	mid := l.Point(1)
	want := 0.95 + (1.48-0.95)*400.0/900.0
	if math.Abs(mid.VoltageV-want) > 1e-12 {
		t.Errorf("mid voltage %v, want %v", mid.VoltageV, want)
	}
	// Validation.
	if _, err := LadderFromFrequencies("x", nil, 0.9, 1.4); err == nil {
		t.Error("empty frequencies accepted")
	}
	if _, err := LadderFromFrequencies("x", []float64{1e9, 1e9}, 0.9, 1.4); err == nil {
		t.Error("duplicate frequencies accepted")
	}
	if _, err := LadderFromFrequencies("x", []float64{1e9}, 1.4, 0.9); err == nil {
		t.Error("inverted voltage range accepted")
	}
	// Single frequency: voltage pinned at the maximum.
	single, err := LadderFromFrequencies("x", []float64{1e9}, 0.9, 1.4)
	if err != nil {
		t.Fatal(err)
	}
	if single.Point(0).VoltageV != 1.4 {
		t.Errorf("single-point voltage %v", single.Point(0).VoltageV)
	}
}
