package kernelsim

import (
	"reflect"
	"testing"

	"phasemon/internal/core"
	"phasemon/internal/dvfs"
	"phasemon/internal/machine"
	"phasemon/internal/phase"
	"phasemon/internal/pmc"
	"phasemon/internal/telemetry"
)

// TestHandlePMIZeroAlloc is the kernel-path memory contract: once the
// log has reached its (explicitly preallocated) capacity and the
// predictor tables are warm, a full HandlePMI — stop/read counters,
// classify, predict, actuate DVFS, log, rearm — performs zero heap
// allocations. This is the simulated analogue of the paper's
// interrupt-context constraint: a PMI handler must not call into the
// allocator at all. An observed handler — its interval recorded into
// its StepBatch and published — keeps the contract too.
func TestHandlePMIZeroAlloc(t *testing.T) {
	for _, observed := range []bool{false, true} {
		t.Run(map[bool]string{false: "bare", true: "observed"}[observed], func(t *testing.T) {
			var hub *telemetry.Hub
			if observed {
				hub = telemetry.NewHub(phase.Default().NumPhases())
			}
			testHandlePMIZeroAlloc(t, hub)
		})
	}
}

func testHandlePMIZeroAlloc(t *testing.T, hub *telemetry.Hub) {
	cls := phase.Default()
	g := core.MustNewGPHT(core.GPHTConfig{GPHRDepth: 8, PHTEntries: 128, NumPhases: cls.NumPhases()})
	mon, err := core.NewMonitor(cls, g)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := dvfs.Identity(dvfs.PentiumM(), cls.NumPhases())
	if err != nil {
		t.Fatal(err)
	}
	mod, err := NewModule(Config{
		Monitor:     mon,
		Translation: tr,
		Log:         make([]Entry, 0, 256), // explicit storage: no growth, ring thereafter
		Telemetry:   hub,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(machine.Config{})
	if err := mod.Load(m); err != nil {
		t.Fatal(err)
	}

	// step advances the counters by one interval's worth of events (with
	// a phase-cycling memory mix) and invokes the handler, exactly as
	// machine.Run would at a counter overflow.
	i := 0
	step := func() {
		gran := mod.cfg.GranularityUops
		m.PMCs().Advance(pmc.Delta{
			Uops:            gran,
			Instructions:    gran * 3 / 4,
			MemTransactions: gran / 100 * uint64(i%13) / 13,
			Cycles:          gran,
		})
		mod.HandlePMI(m)
		i++
	}
	// Warm up past the log capacity so the ring has wrapped and every
	// GPHT pattern has been installed at least once.
	for warm := 0; warm < 512; warm++ {
		step()
	}
	allocs := testing.AllocsPerRun(500, step)
	if allocs != 0 {
		t.Errorf("HandlePMI steady state allocates %.1f allocs/op, want 0", allocs)
	}
	if mod.Samples() < 1012 {
		t.Fatalf("handler did not run: %d samples", mod.Samples())
	}
	if hub != nil && hub.PMISamples.Value() != uint64(mod.Samples()) {
		t.Fatalf("hub saw %d PMI samples, the module logged %d", hub.PMISamples.Value(), mod.Samples())
	}
}

// TestReadLogEmpty: an unused module's log reads as nil — no allocation
// for the empty case.
func TestReadLogEmpty(t *testing.T) {
	mon, err := core.NewMonitor(phase.Default(), core.NewLastValue())
	if err != nil {
		t.Fatal(err)
	}
	mod, err := NewModule(Config{Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	if got := mod.ReadLog(); got != nil {
		t.Errorf("empty ReadLog = %v, want nil", got)
	}
	if allocs := testing.AllocsPerRun(10, func() { _ = mod.ReadLog() }); allocs != 0 {
		t.Errorf("empty ReadLog allocates %.1f allocs/op, want 0", allocs)
	}
	if got := mod.DrainLog(); got != nil {
		t.Errorf("empty DrainLog = %v, want nil", got)
	}
}

// TestDrainLogMatchesReadLog: DrainLog returns exactly what ReadLog
// would have (oldest first, across the ring wrap) and leaves the
// module with a fresh empty log.
func TestDrainLogMatchesReadLog(t *testing.T) {
	for _, n := range []int{5, 8, 13} { // below, at, and beyond capacity 8
		mon, err := core.NewMonitor(phase.Default(), core.NewLastValue())
		if err != nil {
			t.Fatal(err)
		}
		mod, err := NewModule(Config{Monitor: mon, Log: make([]Entry, 0, 8)})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			*mod.logSlot() = Entry{Index: i}
		}
		want := mod.ReadLog()
		got := mod.DrainLog()
		if len(got) != len(want) {
			t.Fatalf("n=%d: drained %d entries, ReadLog had %d", n, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: entry %d = %+v, want %+v", n, i, got[i], want[i])
			}
		}
		if mod.ReadLog() != nil {
			t.Fatalf("n=%d: log not empty after drain", n)
		}
		// The module keeps working after a drain.
		*mod.logSlot() = Entry{Index: 99}
		if l := mod.ReadLog(); len(l) != 1 || l[0].Index != 99 {
			t.Fatalf("n=%d: post-drain append lost: %+v", n, l)
		}
	}
}

// TestExplicitLogCapacityPreallocates: storage passed as Config.Log is
// the log itself — its capacity is the bound, appends up to it never
// reallocate, and the drained log is that storage.
func TestExplicitLogCapacityPreallocates(t *testing.T) {
	mon, err := core.NewMonitor(phase.Default(), core.NewLastValue())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]Entry, 0, 1024)
	mod, err := NewModule(Config{Monitor: mon, Log: buf})
	if err != nil {
		t.Fatal(err)
	}
	if got := cap(mod.log); got != 1024 {
		t.Fatalf("preallocated capacity = %d, want 1024", got)
	}
	i := 0
	allocs := testing.AllocsPerRun(2048, func() {
		*mod.logSlot() = Entry{Index: i}
		i++
	})
	if allocs != 0 {
		t.Errorf("logSlot with explicit capacity allocates %.1f allocs/op, want 0", allocs)
	}
	if got := mod.DrainLog(); len(got) != 1024 || &got[0] != &buf[:1][0] {
		t.Errorf("drained log is not the storage passed as Config.Log")
	}
}

// TestHandlePMIWritesEveryEntryField guards the field-by-field log
// write in HandlePMI: a reused ring slot keeps whatever a field the
// handler does not assign held before, so a new Entry field must be
// added there too.
func TestHandlePMIWritesEveryEntryField(t *testing.T) {
	const written = 9 // the assignments after logSlot in HandlePMI
	if n := reflect.TypeOf(Entry{}).NumField(); n != written {
		t.Fatalf("Entry has %d fields but HandlePMI writes %d; assign the new ones there", n, written)
	}
}
