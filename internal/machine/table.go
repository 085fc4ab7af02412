package machine

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"phasemon/internal/cpusim"
	"phasemon/internal/dvfs"
	"phasemon/internal/phase"
	"phasemon/internal/pmc"
)

// Table is one cached workload trace tabulated on a machine, so that
// many governed runs over the trace can replay their decisions instead
// of simulating the machine again.
//
// Every per-interval machine quantity depends only on the interval and
// the DVFS setting it ran at: the phase metric is DVFS-invariant, and
// with one PMI per work item no chunk straddles two settings. So the
// table keeps, per interval, the setting-invariant counts (retired
// instructions, the rounded memory-transaction count and the Mem/Uop
// the handler derives from it) and, per setting, the interval's work
// span (duration and rail power) and the UPC the handler derives from
// the rounded cycle count, round(duration × frequency), as Run's
// counters round it. Each row is 24 bytes.
//
// Rows are filled on first touch, in blocks of tableBlock intervals
// with one sync.Once per block and setting, by the same execute, delta
// and phase.FromCounters code Run and the PMI handler use; a block's
// counts are filled with its rows at the fastest setting. Concurrent
// replays can share a table, and only the blocks some replay visits
// are ever computed.
type Table struct {
	m       *Machine
	works   []cpusim.Work
	gran    uint64
	counts  []intervalCounts
	blocks  []spanBlock // setting-major: blocks[s*nblocks + i/tableBlock]
	nblocks int
}

// tableBlock is the number of intervals one span block holds.
const tableBlock = 512

// intervalCounts is an interval's setting-invariant counter readings.
// Its uops are the granularity, by NewTable's premise.
type intervalCounts struct {
	instructions float64
	memTx        uint64
	memPerUop    float64
}

// spanRow is an interval's work span at one setting, and its UPC.
type spanRow struct {
	dur, watts, upc float64
}

type spanBlock struct {
	once   sync.Once
	filled atomic.Bool // set once rows is, so a read skips the Once
	rows   []spanRow
}

// NewTable tabulates works, executed at a PMI granularity of gran
// uops, on the default machine (New(Config{})): a replay fixes the
// machine, so governor.NewReplay takes no machine configuration. It
// refuses, with an error, a granularity the uop counter cannot arm and
// any item that Run would reject or whose uops are not exactly gran
// (the one-PMI-per-item premise). The table reads works in place; the
// caller must not modify them.
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
	m := New(Config{})
	t := &Table{
		m:       m,
		works:   works,
		gran:    gran,
		counts:  make([]intervalCounts, len(works)),
		nblocks: (len(works) + tableBlock - 1) / tableBlock,
	}
	t.blocks = make([]spanBlock, m.ctrl.Ladder().Len()*t.nblocks)
	return t, nil
}

// Len returns the number of tabulated intervals.
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

// At returns interval i executed at setting s, filling the block that
// holds it on first touch: the work span's duration in seconds and the
// rail power it drew, the instructions it retired, and the handler's
// phase.FromCounters reading of its counters (see Counters). It is safe
// for concurrent use. It returns values, not a struct, so the replay
// loop reads them straight from registers.
func (t *Table) At(i int, s dvfs.Setting) (dur, watts, instructions float64, sample phase.Sample) {
	row, c := t.row(i, s)
	return row.dur, row.watts, c.instructions, phase.Sample{MemPerUop: c.memPerUop, UPC: row.upc}
}

// Counters returns the rounded memory-transaction and cycle counts of
// interval i at setting s: the counter readings its Sample derives
// from.
//
//lint:unusedexport reference oracle: the replay differential tests expand replay records into the kernel-log entries RunContext keeps through it
func (t *Table) Counters(i int, s dvfs.Setting) (memTx, cycles uint64) {
	row, c := t.row(i, s)
	return c.memTx, t.cycles(row.dur, s)
}

// cycles is the rounded cycle count of a work span of dur seconds at
// setting s. Run counts round(res.Cycles), and the timing model forms
// res.Cycles as res.Time times the frequency: the same product.
func (t *Table) cycles(dur float64, s dvfs.Setting) uint64 {
	return uint64(math.Round(dur * t.m.settings[s].point.FrequencyHz))
}

// row returns interval i's row at setting s and its counts.
func (t *Table) row(i int, s dvfs.Setting) (*spanRow, *intervalCounts) {
	bi := i / tableBlock
	b := &t.blocks[int(s)*t.nblocks+bi]
	if !b.filled.Load() {
		t.fill(b, s, bi)
	}
	return &b.rows[i%tableBlock], &t.counts[i]
}

// fill computes block bi's rows at setting s, once. The block's
// setting-invariant counts are filled with its rows at the fastest
// setting, so a block at any other setting fills that one first.
func (t *Table) fill(b *spanBlock, s dvfs.Setting, bi int) {
	fastest := t.m.ctrl.Ladder().Fastest()
	if f := &t.blocks[bi]; s != fastest && !f.filled.Load() {
		t.fill(f, fastest, bi)
	}
	b.once.Do(func() {
		lo := bi * tableBlock
		works := t.works[lo:min(lo+tableBlock, len(t.works))]
		sp := &t.m.settings[s]
		rows := make([]spanRow, len(works))
		var res cpusim.Result
		for j := range works {
			w := &works[j]
			watts := t.m.execute(&res, w, w.Uops, sp)
			c := &t.counts[lo+j]
			if s == fastest {
				c.instructions, c.memTx = res.Instructions, delta(res).MemTransactions
			}
			smp := phase.FromCounters(t.gran, c.memTx, t.cycles(res.Time, s))
			if s == fastest {
				c.memPerUop = smp.MemPerUop
			}
			rows[j] = spanRow{dur: res.Time, watts: watts, upc: smp.UPC}
		}
		b.rows = rows
		b.filled.Store(true)
	})
}
