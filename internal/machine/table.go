package machine

import (
	"fmt"

	"phasemon/internal/cpusim"
	"phasemon/internal/dvfs"
	"phasemon/internal/phase"
	"phasemon/internal/pmc"
)

// Table is one cached workload trace viewed on a machine, so that many
// governed runs over the trace can replay their decisions instead of
// simulating the machine again.
//
// Every per-interval machine quantity depends only on the interval and
// the DVFS setting it ran at: with one PMI per work item no chunk
// straddles two settings. Some do not depend on the setting at all:
// the memory stall time of the timing equation (cpusim.Model.Stall)
// and the handler's Mem/Uop reading, the DVFS-invariant phase metric.
// The table tabulates those two per interval, once, as it validates the
// trace; At evaluates the rest of interval i at setting s from the
// trace item on each call, through the same halves of the timing
// equation, and the same phase.FromCounters halves, that Run and the
// PMI handler use. The table is read-only once built, safe for
// concurrent use.
type Table struct {
	m     *Machine
	works []cpusim.Work
	col   []Invariant
	gran  uint64
}

// Invariant is one table interval's setting-invariant terms: the
// memory stall time of its work span and the Mem/Uop the PMI handler
// reads of it. A table's column holds one per interval; the fields are
// the table's own, and a caller only hands the storage on (NewTableIn,
// Table.Column).
type Invariant struct {
	memS      float64 // cpusim.Model.Stall's memory time
	memPerUop float64 // phase.MemPerUop of the rounded memory transactions
}

// NewTable views works, executed at a PMI granularity of gran uops, on
// the default machine (New(Config{})): a replay fixes the machine, so
// governor.NewReplay takes no machine configuration. It refuses, with
// an error, a granularity the uop counter cannot arm and any item that
// Run would reject or whose uops are not exactly gran (the
// one-PMI-per-item premise); it validates every item here, once, so At
// checks nothing. The table reads works in place; the caller must not
// modify them.
//
//lint:unusedexport the table over fresh storage that the machine, replay and benchmark tests build; fleet.Play builds its tables in recycled storage through NewTableIn
func NewTable(works []cpusim.Work, gran uint64) (*Table, error) {
	return NewTableIn(nil, works, gran)
}

// NewTableIn is NewTable with its column stored in buf when buf's
// capacity holds one Invariant per item, and in new storage otherwise;
// whatever buf holds is overwritten. The table owns the storage until
// the caller is done with it and with every replay over it, and then
// Column hands it back for the next NewTableIn.
func NewTableIn(buf []Invariant, works []cpusim.Work, gran uint64) (*Table, error) {
	if gran == 0 || gran >= 1<<pmc.CounterWidth {
		return nil, fmt.Errorf("machine: granularity %d cannot arm the uop counter", gran)
	}
	m := New(Config{})
	if cap(buf) < len(works) {
		buf = make([]Invariant, len(works))
	}
	col := buf[:len(works)]
	uops := float64(gran)
	for i := range works {
		w := &works[i]
		if err := w.Validate(); err != nil {
			return nil, fmt.Errorf("machine: interval %d: %w", i, err)
		}
		if w.Uops != uops { //lint:floateq one PMI per item needs the counter to reach exactly the granularity
			return nil, fmt.Errorf("machine: interval %d retires %v uops, not the %d-uop granularity, so it would not raise exactly one PMI", i, w.Uops, gran)
		}
		memS, _, memTx := m.cpu.Stall(w, uops)
		col[i] = Invariant{memS: memS, memPerUop: phase.MemPerUop(gran, count(memTx))}
	}
	return &Table{m: m, works: works, col: col, gran: gran}, nil
}

// Column returns the table's column storage, for a later NewTableIn to
// reuse once the table and every replay over it are done.
func (t *Table) Column() []Invariant { return t.col }

// Len returns the number of intervals in the table.
func (t *Table) Len() int { return len(t.works) }

// Granularity returns the PMI granularity in uops: every interval's
// retired uop count.
func (t *Table) Granularity() uint64 { return t.gran }

// Ladder returns the machine's DVFS ladder, which settings index.
func (t *Table) Ladder() *dvfs.Ladder { return t.m.ctrl.Ladder() }

// NewController returns a DVFS controller for a replay: the machine's,
// fresh at the fastest setting with its transition latency.
func (t *Table) NewController() *dvfs.Controller {
	c := *t.m.ctrl
	return &c
}

// HandlerWatts returns the rail power the PMI handler draws at setting
// s, as Run charges it.
func (t *Table) HandlerWatts(s dvfs.Setting) float64 { return t.m.handlerPower(&t.m.settings[s]) }

// At returns interval i executed at setting s: the work span's
// duration in seconds and the rail power it drew, the instructions it
// retired, and the handler's phase.FromCounters reading of its rounded
// memory-transaction and cycle counts (see Counters). The memory stall
// time and the Mem/Uop reading come from the column; the rest is
// execute's setting-dependent half. It returns values, not a struct,
// so the replay loop reads them straight from registers.
//
//lint:hotpath
func (t *Table) At(i int, s dvfs.Setting) (dur, watts, instructions float64, sample phase.Sample) {
	w, inv, sp := &t.works[i], &t.col[i], &t.m.settings[s]
	uops := float64(t.gran)
	dur, cycles, upc := span(w, uops, inv.memS, sp)
	// The table's machine has no thermal model: this is powerNow.
	watts = t.m.railPower(sp, upc, sp.leakW)
	return dur, watts, w.Retired(uops), phase.Sample{MemPerUop: inv.memPerUop, UPC: phase.UPC(t.gran, count(cycles))}
}

// Counters returns the rounded memory-transaction and cycle counts of
// interval i at setting s: the counter readings its Sample derives
// from.
//
//lint:unusedexport reference oracle: the replay differential tests expand replay records into the kernel-log entries RunContext keeps through it
func (t *Table) Counters(i int, s dvfs.Setting) (memTx, cycles uint64) {
	_, c, _, tx, _ := t.m.execute(&t.works[i], float64(t.gran), &t.m.settings[s])
	return count(tx), count(c)
}
