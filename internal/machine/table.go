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
// the DVFS setting it ran at: the phase metric is DVFS-invariant, and
// with one PMI per work item no chunk straddles two settings. So At
// evaluates interval i at setting s from the trace item on each call,
// through the same execute and phase.FromCounters that Run and the PMI
// handler use. The table stores nothing per interval: it is a
// read-only view of the trace plus the machine's per-setting
// constants, safe for concurrent use.
type Table struct {
	m     *Machine
	works []cpusim.Work
	gran  uint64
}

// NewTable views works, executed at a PMI granularity of gran uops, on
// the default machine (New(Config{})): a replay fixes the machine, so
// governor.NewReplay takes no machine configuration. It refuses, with
// an error, a granularity the uop counter cannot arm and any item that
// Run would reject or whose uops are not exactly gran (the
// one-PMI-per-item premise); it validates every item here, once, so At
// checks nothing. The table reads works in place; the caller must not
// modify them.
func NewTable(works []cpusim.Work, gran uint64) (*Table, error) {
	if gran == 0 || gran >= 1<<pmc.CounterWidth {
		return nil, fmt.Errorf("machine: granularity %d cannot arm the uop counter", gran)
	}
	for i, w := range works {
		if err := w.Validate(); err != nil {
			return nil, fmt.Errorf("machine: interval %d: %w", i, err)
		}
		if w.Uops != float64(gran) { //lint:floateq one PMI per item needs the counter to reach exactly the granularity
			return nil, fmt.Errorf("machine: interval %d retires %v uops, not the %d-uop granularity, so it would not raise exactly one PMI", i, w.Uops, gran)
		}
	}
	return &Table{m: New(Config{}), works: works, gran: gran}, nil
}

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
// memory-transaction and cycle counts (see Counters). It returns
// values, not a struct, so the replay loop reads them straight from
// registers.
func (t *Table) At(i int, s dvfs.Setting) (dur, watts, instructions float64, sample phase.Sample) {
	dur, cycles, instructions, memTx, watts := t.m.execute(&t.works[i], float64(t.gran), &t.m.settings[s])
	return dur, watts, instructions, phase.FromCounters(t.gran, count(memTx), count(cycles))
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
