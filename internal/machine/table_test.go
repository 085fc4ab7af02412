package machine

import (
	"strings"
	"sync"
	"testing"

	"phasemon/internal/cpusim"
	"phasemon/internal/dvfs"
	"phasemon/internal/phase"
	"phasemon/internal/pmc"
	"phasemon/internal/workload"
)

// readingHandler reads the counters at each PMI as the kernel module
// does, then rearms them, and charges no handler time.
type readingHandler struct {
	gran          uint64
	memTx, cycles []uint64
}

func (h *readingHandler) HandlePMI(m *Machine) float64 {
	b := m.PMCs()
	mem, _ := b.Read(1)
	h.memTx = append(h.memTx, mem)
	h.cycles = append(h.cycles, b.TSC())
	if err := b.Arm(0, h.gran); err != nil {
		panic(err)
	}
	if err := b.Write(1, 0); err != nil {
		panic(err)
	}
	b.WriteTSC(0)
	return 0
}

func works(t *testing.T, name string, gran uint64, n int) []cpusim.Work {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return workload.Collect(p.Generator(workload.Params{Seed: 1, Intervals: n, GranularityUops: float64(gran)}), 0)
}

// TestTableMatchesRun checks every interval of a table against Run
// pinned at each setting, for every registered workload profile (the
// paper figures' benchmarks among them): the work span the recorder
// sees, the memory transactions and cycles the handler reads, and the
// sample it derives from them. Cycles, derived from the span's
// duration, must equal the counter's rounding bit for bit.
func TestTableMatchesRun(t *testing.T) {
	const gran = 50_000_000
	for _, p := range workload.All() {
		name := p.Name
		ws := works(t, name, gran, 600)
		tab, err := NewTable(ws, gran)
		if err != nil {
			t.Fatal(err)
		}
		for s := range tab.Ladder().Len() {
			set := dvfs.Setting(s)
			rec := &collectRecorder{}
			m := New(Config{Recorder: rec})
			if err := m.PMCs().Configure(0, pmc.EventUopsRetired, true); err != nil {
				t.Fatal(err)
			}
			if err := m.PMCs().Configure(1, pmc.EventBusTranMem, false); err != nil {
				t.Fatal(err)
			}
			if err := m.PMCs().Arm(0, gran); err != nil {
				t.Fatal(err)
			}
			m.PMCs().Start()
			if _, err := m.DVFS().Set(set); err != nil {
				t.Fatal(err)
			}
			h := &readingHandler{gran: gran}
			res, err := m.Run(&sliceGen{works: ws}, h)
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.spans) != len(ws) || len(h.cycles) != len(ws) {
				t.Fatalf("%s setting %d: %d spans and %d PMIs for %d intervals", name, s, len(rec.spans), len(h.cycles), len(ws))
			}
			var instructions float64
			for i := range ws {
				dur, watts, instr, smp := tab.At(i, set)
				memTx, cycles := tab.Counters(i, set)
				sp := rec.spans[i]
				if dur != sp.Dur || watts != sp.Watts || memTx != h.memTx[i] || cycles != h.cycles[i] || //lint:floateq the table must reproduce Run bit for bit
					smp != phase.FromCounters(gran, memTx, cycles) {
					t.Fatalf("%s setting %d interval %d: table span %v s at %v W, sample %+v, memTx %d, cycles %d; run span %v s at %v W, memTx %d, cycles %d",
						name, s, i, dur, watts, smp, memTx, cycles, sp.Dur, sp.Watts, h.memTx[i], h.cycles[i])
				}
				instructions += instr
			}
			if instructions != res.Instructions { //lint:floateq same operands in the same order
				t.Errorf("%s setting %d: table instructions sum to %v, run retired %v", name, s, instructions, res.Instructions)
			}
		}
	}
}

// sliceGen replays a fixed work list.
type sliceGen struct {
	works []cpusim.Work
	i     int
}

func (g *sliceGen) Name() string { return "slice" }
func (g *sliceGen) Next() (cpusim.Work, bool) {
	if g.i >= len(g.works) {
		return cpusim.Work{}, false
	}
	g.i++
	return g.works[g.i-1], true
}
func (g *sliceGen) Reset() { g.i = 0 }

// TestTableRefusals: every run a table cannot stand in for is refused
// with an error.
func TestTableRefusals(t *testing.T) {
	ws := works(t, "applu_in", 100_000_000, 20)
	bad := append([]cpusim.Work(nil), ws...)
	bad[7].CoreUPC = -1
	cases := []struct {
		name  string
		works []cpusim.Work
		gran  uint64
		want  string
	}{
		{"zero granularity", ws, 0, "granularity"},
		{"granularity past the counter", ws, 1 << pmc.CounterWidth, "granularity"},
		{"uops not the granularity", ws, 50_000_000, "not the 50000000-uop granularity"},
		{"invalid item", bad, 100_000_000, "interval 7"},
	}
	for _, c := range cases {
		if tab, err := NewTable(c.works, c.gran); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: table %v, error %v; want an error containing %q", c.name, tab != nil, err, c.want)
		}
	}
}

// TestTableConcurrentFill: goroutines reading the same table at once
// see what a lone reader of another table sees, since At may be called
// concurrently. Run it under -race.
func TestTableConcurrentFill(t *testing.T) {
	const gran = 100_000_000
	ws := works(t, "swim_in", gran, 1553)
	shared, err := NewTable(ws, gran)
	if err != nil {
		t.Fatal(err)
	}
	lone, err := NewTable(ws, gran)
	if err != nil {
		t.Fatal(err)
	}
	// interval is what At returns for one interval and setting.
	type interval struct {
		dur, watts, instructions float64
		sample                   phase.Sample
	}
	at := func(tab *Table, i, s int) interval {
		var iv interval
		iv.dur, iv.watts, iv.instructions, iv.sample = tab.At(i, dvfs.Setting(s))
		return iv
	}
	var wg sync.WaitGroup
	got := make([][]interval, 2)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ws {
				for s := range shared.Ladder().Len() {
					got[g] = append(got[g], at(shared, i, s))
				}
			}
		}()
	}
	wg.Wait()
	k := 0
	for i := range ws {
		for s := range lone.Ladder().Len() {
			want := at(lone, i, s)
			for g := range got {
				if got[g][k] != want {
					t.Fatalf("goroutine %d, interval %d setting %d: %+v, want %+v", g, i, s, got[g][k], want)
				}
			}
			k++
		}
	}
}

// TestTableReusedStorage: a table built over another table's column —
// a dirty buffer from a longer trace, which it reuses, or one from a
// shorter trace, which it outgrows — reads exactly as a table built
// over fresh storage, at every interval and setting.
func TestTableReusedStorage(t *testing.T) {
	const gran = 100_000_000
	long, err := NewTable(works(t, "swim_in", gran, 900), gran)
	if err != nil {
		t.Fatal(err)
	}
	short, err := NewTable(works(t, "gzip_graphic", gran, 120), gran)
	if err != nil {
		t.Fatal(err)
	}
	ws := works(t, "applu_in", gran, 400)
	fresh, err := NewTable(ws, gran)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		buf   []Invariant
		reuse bool
	}{
		{"longer trace's column", long.Column(), true},
		{"shorter trace's column", short.Column(), false},
	} {
		tab, err := NewTableIn(c.buf, ws, gran)
		if err != nil {
			t.Fatal(err)
		}
		if reused := &tab.Column()[0] == &c.buf[0]; reused != c.reuse {
			t.Errorf("%s: storage reused %v, want %v", c.name, reused, c.reuse)
		}
		for i := range ws {
			for s := range tab.Ladder().Len() {
				set := dvfs.Setting(s)
				dur, watts, instr, smp := tab.At(i, set)
				wdur, wwatts, winstr, wsmp := fresh.At(i, set)
				if dur != wdur || watts != wwatts || instr != winstr || smp != wsmp { //lint:floateq reused storage must read bit for bit as fresh
					t.Fatalf("%s: interval %d setting %d reads (%v s, %v W, %v instructions, %+v), fresh (%v s, %v W, %v instructions, %+v)",
						c.name, i, s, dur, watts, instr, smp, wdur, wwatts, winstr, wsmp)
				}
			}
		}
	}
}
