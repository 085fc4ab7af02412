package core

import (
	"errors"
	"fmt"
	"math"

	"encoding/binary"

	"phasemon/internal/phase"
	"phasemon/internal/stats"
)

// The paper's central artifact — a predictor's learned state — is
// long-lived and valuable: a GPHT that has warmed on a workload keeps
// predicting at full accuracy only if its pattern table survives
// process boundaries. This file makes that state a first-class,
// serializable value: every predictor family implements
// StatefulPredictor, encoding its complete run state into a compact,
// versioned, fixed-layout binary form (big-endian throughout) that a
// predictor of identical configuration restores bit-identically.
//
// Layout discipline: every snapshot opens with a one-byte family tag
// and a one-byte per-family version, so restoring state into the wrong
// predictor family or a future incompatible layout fails loudly
// instead of silently corrupting the table. The encode side is
// append-style and allocation-free (proved by AllocsPerRun witnesses);
// the decode side validates every length and range before touching
// receiver state. Snapshots restore into an already-constructed
// predictor of matching configuration; the spec travels separately.

// StatefulPredictor is a Predictor whose learned state can be
// exported and re-imported: the contract behind live session
// migration (wire Snapshot/Restore frames, phased snapshot-on-drain,
// phaseclient Resume). After p2.Restore(p1.Snapshot(nil)) on two
// predictors built from the same spec, p1 and p2 produce identical
// prediction streams for identical inputs.
//
// Every predictor registered through RegisterPredictor is a
// StatefulPredictor by construction: the registry's builder type
// returns the interface, so an unsnapshottable predictor cannot enter
// the spec namespace.
type StatefulPredictor interface {
	Predictor
	// SnapshotLen returns the exact number of bytes Snapshot appends
	// in the predictor's current state.
	SnapshotLen() int
	// Snapshot appends the predictor's complete run state to dst and
	// returns the extended slice. With cap(dst)-len(dst) >=
	// SnapshotLen() it does not allocate.
	Snapshot(dst []byte) []byte
	// Restore replaces the predictor's state with a snapshot taken
	// from a predictor of identical configuration. On error the
	// receiver is unchanged or Reset — never half-restored.
	Restore(src []byte) error
}

// Snapshot family tags (first byte of every predictor snapshot).
const (
	snapLastValue = 0x01
	snapFixWindow = 0x02
	snapVarWindow = 0x03
	snapGPHT      = 0x04
	snapDuration  = 0x05
	snapOracle    = 0x06
	snapRunLength = 0x07
	snapMarkov    = 0x08
	snapDTree     = 0x09
	snapLinReg    = 0x0A
	snapMonitor   = 0x4D // 'M'; monitor envelope, not a predictor
	snapVersion1  = 1
)

// ErrSnapshot is the root error every snapshot encode/decode failure
// wraps, so transport layers can test one sentinel.
var ErrSnapshot = errors.New("core: bad snapshot")

// ErrNotStateful reports a Monitor whose predictor does not implement
// StatefulPredictor and therefore cannot be migrated.
var ErrNotStateful = errors.New("core: predictor is not a StatefulPredictor")

// snapReader is a cursor over snapshot bytes; the first short read
// latches an error and zero-fills every subsequent read, so decoders
// can parse straight-line and check once.
type snapReader struct {
	b     []byte
	short bool
}

func (r *snapReader) u8() uint8 {
	if len(r.b) < 1 {
		r.short = true
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *snapReader) u32() uint32 {
	if len(r.b) < 4 {
		r.short = true
		return 0
	}
	v := binary.BigEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *snapReader) u64() uint64 {
	if len(r.b) < 8 {
		r.short = true
		return 0
	}
	v := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *snapReader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *snapReader) bytes(n int) []byte {
	if n < 0 || len(r.b) < n {
		r.short = true
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

// header validates the family tag and version and returns an error to
// surface directly when they do not match.
func (r *snapReader) header(family, version uint8, name string) error {
	f, v := r.u8(), r.u8()
	if r.short {
		return fmt.Errorf("%w: %s snapshot truncated", ErrSnapshot, name)
	}
	if f != family {
		return fmt.Errorf("%w: %s snapshot has family tag %#x, want %#x", ErrSnapshot, name, f, family)
	}
	if v != version {
		return fmt.Errorf("%w: %s snapshot version %d unsupported (want %d)", ErrSnapshot, name, v, version)
	}
	return nil
}

// done verifies the snapshot was consumed exactly.
func (r *snapReader) done(name string) error {
	if r.short {
		return fmt.Errorf("%w: %s snapshot truncated", ErrSnapshot, name)
	}
	if len(r.b) != 0 {
		return fmt.Errorf("%w: %s snapshot has %d trailing bytes", ErrSnapshot, name, len(r.b))
	}
	return nil
}

// --- lastValue -----------------------------------------------------

// SnapshotLen implements StatefulPredictor.
func (p *lastValue) SnapshotLen() int { return 3 }

// Snapshot implements StatefulPredictor.
//
//lint:hotpath
func (p *lastValue) Snapshot(dst []byte) []byte {
	dst = append(dst, snapLastValue, snapVersion1)
	return append(dst, byte(p.last))
}

// Restore implements StatefulPredictor.
func (p *lastValue) Restore(src []byte) error {
	r := snapReader{b: src}
	if err := r.header(snapLastValue, snapVersion1, "lastvalue"); err != nil {
		return err
	}
	last := phase.ID(r.u8())
	if err := r.done("lastvalue"); err != nil {
		return err
	}
	p.last = last
	return nil
}

// --- fixedWindow ---------------------------------------------------

// SnapshotLen implements StatefulPredictor.
func (p *fixedWindow) SnapshotLen() int {
	return 25 + p.votes.len() + 8*len(p.mems)
}

// Snapshot implements StatefulPredictor.
//
//lint:hotpath
func (p *fixedWindow) Snapshot(dst []byte) []byte {
	dst = append(dst, snapFixWindow, snapVersion1, byte(p.mode))
	dst = binary.BigEndian.AppendUint32(dst, uint32(p.size))
	dst = append(dst, byte(p.last), boolByte(p.emaInit))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(p.ema))
	dst = binary.BigEndian.AppendUint32(dst, uint32(p.votes.len()))
	dst = p.votes.appendIDs(dst)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(p.mems)))
	for _, m := range p.mems {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(m))
	}
	return dst
}

// Restore implements StatefulPredictor.
func (p *fixedWindow) Restore(src []byte) error {
	r := snapReader{b: src}
	if err := r.header(snapFixWindow, snapVersion1, "fixwindow"); err != nil {
		return err
	}
	mode := WindowMode(r.u8())
	size := int(r.u32())
	last := phase.ID(r.u8())
	emaInit := r.u8() != 0
	ema := r.f64()
	nPhases := int(r.u32())
	phaseBytes := r.bytes(nPhases)
	nMems := int(r.u32())
	memOff := len(src) - len(r.b)
	_ = r.bytes(8 * nMems)
	if err := r.done("fixwindow"); err != nil {
		return err
	}
	if mode != p.mode || size != p.size {
		return fmt.Errorf("%w: fixwindow snapshot is (size %d, mode %v), predictor is (size %d, mode %v)",
			ErrSnapshot, size, mode, p.size, p.mode)
	}
	if nPhases > size || nMems > size {
		return fmt.Errorf("%w: fixwindow snapshot windows (%d phases, %d mems) exceed size %d",
			ErrSnapshot, nPhases, nMems, size)
	}
	// Each mode keeps at most one window: majority the phase IDs, mean
	// the Mem/Uop values, EMA neither.
	if (nPhases > 0 && mode != ModeMajority) || (nMems > 0 && mode != ModeMean) {
		return fmt.Errorf("%w: fixwindow snapshot in %v mode carries %d phases and %d mems",
			ErrSnapshot, mode, nPhases, nMems)
	}
	p.last = last
	p.emaInit = emaInit
	p.ema = ema
	p.votes.loadIDs(phaseBytes)
	p.mems = p.mems[:0]
	for i := 0; i < nMems; i++ {
		p.mems = append(p.mems, math.Float64frombits(binary.BigEndian.Uint64(src[memOff+8*i:])))
	}
	return nil
}

// --- variableWindow ------------------------------------------------

// SnapshotLen implements StatefulPredictor.
func (p *variableWindow) SnapshotLen() int { return 28 + p.votes.len() }

// Snapshot implements StatefulPredictor.
//
//lint:hotpath
func (p *variableWindow) Snapshot(dst []byte) []byte {
	dst = append(dst, snapVarWindow, snapVersion1)
	dst = binary.BigEndian.AppendUint32(dst, uint32(p.size))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(p.threshold))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(p.lastMem))
	dst = append(dst, boolByte(p.havePrev), byte(p.last))
	dst = binary.BigEndian.AppendUint32(dst, uint32(p.votes.len()))
	return p.votes.appendIDs(dst)
}

// Restore implements StatefulPredictor.
func (p *variableWindow) Restore(src []byte) error {
	r := snapReader{b: src}
	if err := r.header(snapVarWindow, snapVersion1, "varwindow"); err != nil {
		return err
	}
	size := int(r.u32())
	threshold := r.f64()
	lastMem := r.f64()
	havePrev := r.u8() != 0
	last := phase.ID(r.u8())
	nPhases := int(r.u32())
	phaseBytes := r.bytes(nPhases)
	if err := r.done("varwindow"); err != nil {
		return err
	}
	if size != p.size || math.Float64bits(threshold) != math.Float64bits(p.threshold) {
		return fmt.Errorf("%w: varwindow snapshot is (size %d, threshold %v), predictor is (size %d, threshold %v)",
			ErrSnapshot, size, threshold, p.size, p.threshold)
	}
	if nPhases > size {
		return fmt.Errorf("%w: varwindow snapshot window %d exceeds size %d", ErrSnapshot, nPhases, size)
	}
	p.lastMem = lastMem
	p.havePrev = havePrev
	p.last = last
	p.votes.loadIDs(phaseBytes)
	return nil
}

// --- oracle --------------------------------------------------------

// SnapshotLen implements StatefulPredictor.
func (p *oracle) SnapshotLen() int { return 14 + len(p.future) }

// Snapshot implements StatefulPredictor. The recorded future rides in
// the snapshot, so a resumed oracle replays from where it stopped
// even in an environment whose SpecEnv carries no future.
//
//lint:hotpath
func (p *oracle) Snapshot(dst []byte) []byte {
	dst = append(dst, snapOracle, snapVersion1)
	dst = binary.BigEndian.AppendUint64(dst, uint64(p.i))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(p.future)))
	for _, id := range p.future {
		dst = append(dst, byte(id))
	}
	return dst
}

// Restore implements StatefulPredictor.
func (p *oracle) Restore(src []byte) error {
	r := snapReader{b: src}
	if err := r.header(snapOracle, snapVersion1, "oracle"); err != nil {
		return err
	}
	i := r.u64()
	n := int(r.u32())
	futureBytes := r.bytes(n)
	if err := r.done("oracle"); err != nil {
		return err
	}
	if i > uint64(n) {
		return fmt.Errorf("%w: oracle snapshot position %d beyond future length %d", ErrSnapshot, i, n)
	}
	p.future = p.future[:0]
	for _, b := range futureBytes {
		p.future = append(p.future, phase.ID(b))
	}
	p.i = int(i)
	return nil
}

// --- DurationPredictor ---------------------------------------------

// SnapshotLen implements StatefulPredictor.
func (p *DurationPredictor) SnapshotLen() int {
	n := p.numPhases
	return 20 + 8*n + 8*n*n
}

// Snapshot implements StatefulPredictor.
//
//lint:hotpath
func (p *DurationPredictor) Snapshot(dst []byte) []byte {
	dst = append(dst, snapDuration, snapVersion1, byte(p.numPhases))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(p.alpha))
	dst = append(dst, byte(p.current))
	dst = binary.BigEndian.AppendUint64(dst, uint64(p.runLen))
	for _, v := range p.avgRun {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
	}
	for _, row := range p.succ {
		for _, n := range row {
			dst = binary.BigEndian.AppendUint64(dst, uint64(n))
		}
	}
	return dst
}

// Restore implements StatefulPredictor.
func (p *DurationPredictor) Restore(src []byte) error {
	r := snapReader{b: src}
	if err := r.header(snapDuration, snapVersion1, "duration"); err != nil {
		return err
	}
	numPhases := int(r.u8())
	alpha := r.f64()
	current := phase.ID(r.u8())
	runLen := r.u64()
	if numPhases != p.numPhases || math.Float64bits(alpha) != math.Float64bits(p.alpha) {
		return fmt.Errorf("%w: duration snapshot is (%d phases, alpha %v), predictor is (%d phases, alpha %v)",
			ErrSnapshot, numPhases, alpha, p.numPhases, p.alpha)
	}
	avgRun := make([]float64, numPhases)
	for i := range avgRun {
		avgRun[i] = r.f64()
	}
	succ := make([][]int, numPhases)
	for i := range succ {
		succ[i] = make([]int, numPhases)
		for j := range succ[i] {
			succ[i][j] = int(r.u64())
		}
	}
	if err := r.done("duration"); err != nil {
		return err
	}
	p.current = current
	p.runLen = int(runLen)
	p.avgRun = avgRun
	p.succ = succ
	return nil
}

// --- GPHT ----------------------------------------------------------

// gphtNoSlot encodes lastSlot = -1 (no PHT slot pending training).
const gphtNoSlot = ^uint32(0)

// SnapshotLen implements StatefulPredictor.
func (g *GPHT) SnapshotLen() int {
	return 45 + g.cfg.GPHRDepth + 18*g.cfg.PHTEntries
}

// Snapshot implements StatefulPredictor: the complete learned state —
// GPHR contents, every PHT row with its LRU age and hysteresis bit,
// the pending training slot, and the hit/miss accounting — in a
// fixed-layout form. The phtIndex is not encoded; Restore rebuilds it
// from the valid rows.
//
//lint:hotpath
func (g *GPHT) Snapshot(dst []byte) []byte {
	dst = append(dst, snapGPHT, snapVersion1, byte(g.cfg.GPHRDepth))
	dst = binary.BigEndian.AppendUint32(dst, uint32(g.cfg.PHTEntries))
	dst = append(dst, byte(g.cfg.NumPhases), boolByte(g.cfg.Hysteresis))
	dst = binary.BigEndian.AppendUint64(dst, uint64(g.seen))
	dst = binary.BigEndian.AppendUint64(dst, g.clock)
	dst = binary.BigEndian.AppendUint64(dst, g.hits)
	dst = binary.BigEndian.AppendUint64(dst, g.misses)
	slot := gphtNoSlot
	if g.lastSlot >= 0 {
		slot = uint32(g.lastSlot)
	}
	dst = binary.BigEndian.AppendUint32(dst, slot)
	for _, p := range g.gphr {
		dst = append(dst, byte(p))
	}
	for i := range g.pht {
		e := &g.pht[i]
		dst = binary.BigEndian.AppendUint64(dst, e.tag)
		dst = binary.BigEndian.AppendUint64(dst, e.age)
		var flags byte
		if e.valid {
			flags |= 1
		}
		if e.conf {
			flags |= 2
		}
		dst = append(dst, byte(e.pred), flags)
	}
	return dst
}

// Restore implements StatefulPredictor. The snapshot's geometry must
// match the receiver's configuration — migration builds the predictor
// from its spec first, then restores — and the PHT index is rebuilt
// with duplicate-tag detection. On error the receiver is Reset.
func (g *GPHT) Restore(src []byte) error {
	r := snapReader{b: src}
	if err := r.header(snapGPHT, snapVersion1, "gpht"); err != nil {
		return err
	}
	depth := int(r.u8())
	entries := int(r.u32())
	numPhases := int(r.u8())
	hyst := r.u8() != 0
	seen := r.u64()
	clock := r.u64()
	hits := r.u64()
	misses := r.u64()
	slot := r.u32()
	if r.short {
		return fmt.Errorf("%w: gpht snapshot truncated", ErrSnapshot)
	}
	if depth != g.cfg.GPHRDepth || entries != g.cfg.PHTEntries ||
		numPhases != g.cfg.NumPhases || hyst != g.cfg.Hysteresis {
		return fmt.Errorf("%w: gpht snapshot geometry (depth %d, entries %d, phases %d, hyst %v) does not match predictor (%d, %d, %d, %v)",
			ErrSnapshot, depth, entries, numPhases, hyst,
			g.cfg.GPHRDepth, g.cfg.PHTEntries, g.cfg.NumPhases, g.cfg.Hysteresis)
	}
	if slot != gphtNoSlot && int(slot) >= entries {
		return fmt.Errorf("%w: gpht snapshot training slot %d outside %d-entry table", ErrSnapshot, slot, entries)
	}
	gphrBytes := r.bytes(depth)
	rows := r.bytes(18 * entries)
	if err := r.done("gpht"); err != nil {
		return err
	}

	for _, b := range gphrBytes {
		if b != 0 && !phase.ID(b).Valid(numPhases) {
			return fmt.Errorf("%w: gpht snapshot GPHR holds invalid phase %d", ErrSnapshot, b)
		}
	}

	// All validated up front except per-row duplicates; from here on
	// mutate the receiver, Resetting on the one remaining failure so a
	// bad snapshot never leaves a half-restored table.
	for i, b := range gphrBytes {
		g.gphr[i] = phase.ID(b)
	}
	g.tag = g.packTag()
	g.seen = int(seen)
	g.clock = clock
	g.hits = hits
	g.misses = misses
	g.lastSlot = -1
	if slot != gphtNoSlot {
		g.lastSlot = int(slot)
	}
	g.index.reset()
	for i := 0; i < entries; i++ {
		row := rows[18*i:]
		e := phtEntry{
			tag:   binary.BigEndian.Uint64(row),
			age:   binary.BigEndian.Uint64(row[8:]),
			pred:  row[16],
			valid: row[17]&1 != 0,
			conf:  row[17]&2 != 0,
		}
		if e.valid {
			if p := phase.ID(e.pred); p != phase.None && !p.Valid(numPhases) {
				g.Reset()
				return fmt.Errorf("%w: gpht snapshot row %d predicts invalid phase %d", ErrSnapshot, i, e.pred)
			}
			if other, dup := g.index.get(e.tag); dup {
				g.Reset()
				return fmt.Errorf("%w: gpht snapshot has duplicate tag %#x in rows %d and %d", ErrSnapshot, e.tag, other, i)
			}
			g.index.put(e.tag, i)
		}
		g.pht[i] = e
	}
	// Every install stamps a fresh age from the clock, so the valid
	// rows' ages are distinct and in [1, clock]; the recency list is
	// only the LRU order under that invariant.
	g.resetRecency()
	prev := uint64(0)
	for slot := g.links[entries].next; slot != int32(entries); slot = g.links[slot].next {
		if age := g.pht[slot].age; age <= prev || age > clock {
			g.Reset()
			return fmt.Errorf("%w: gpht snapshot row %d has age %d, not a distinct age in [1, clock %d]", ErrSnapshot, slot, age, clock)
		}
		prev = g.pht[slot].age
	}
	return nil
}

// --- Monitor envelope ----------------------------------------------

// monitorFixed is the fixed portion of a monitor snapshot: tag,
// version, numPhases, lastPrediction, lastActual, steps, tally
// total/correct, and the predictor-state length prefix.
const monitorFixed = 2 + 1 + 1 + 1 + 8 + 8 + 8 + 4

// SnapshotLen returns the exact byte length Snapshot will append, or
// ErrNotStateful when the monitor's predictor cannot be snapshotted.
func (m *Monitor) SnapshotLen() (int, error) {
	sp, ok := m.pred.(StatefulPredictor)
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotStateful, m.pred.Name())
	}
	n := m.cls.NumPhases()
	return monitorFixed + 8*(n+1)*(n+1) + sp.SnapshotLen(), nil
}

// Snapshot appends the monitor's complete serving state — prediction
// pipeline registers, accuracy tally, confusion matrix, and the
// embedded predictor's state — to dst. With enough capacity (see
// SnapshotLen) it does not allocate. This is the encode path of
// phased's snapshot-on-drain.
//
//lint:hotpath
func (m *Monitor) Snapshot(dst []byte) ([]byte, error) {
	sp, ok := m.pred.(StatefulPredictor)
	if !ok {
		return dst, fmt.Errorf("%w: %s", ErrNotStateful, m.pred.Name())
	}
	n := m.cls.NumPhases()
	dst = append(dst, snapMonitor, snapVersion1, byte(n))
	dst = append(dst, byte(m.lastPrediction), byte(m.lastActual))
	dst = binary.BigEndian.AppendUint64(dst, uint64(m.steps))
	dst = binary.BigEndian.AppendUint64(dst, uint64(m.tally.Total()))
	dst = binary.BigEndian.AppendUint64(dst, uint64(m.tally.Correct()))
	for actual := 0; actual <= n; actual++ {
		for predicted := 0; predicted <= n; predicted++ {
			c := m.confusion.Count(phase.ID(predicted), phase.ID(actual))
			dst = binary.BigEndian.AppendUint64(dst, uint64(c))
		}
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(sp.SnapshotLen()))
	return sp.Snapshot(dst), nil
}

// Restore replaces the monitor's state with a snapshot taken from a
// monitor of identical configuration (same phase count, predictor
// built from the same spec). This is the import path of phased's
// Restore-negotiated session resume.
func (m *Monitor) Restore(src []byte) error {
	sp, ok := m.pred.(StatefulPredictor)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotStateful, m.pred.Name())
	}
	r := snapReader{b: src}
	if err := r.header(snapMonitor, snapVersion1, "monitor"); err != nil {
		return err
	}
	n := int(r.u8())
	lastPrediction := phase.ID(r.u8())
	lastActual := phase.ID(r.u8())
	steps := r.u64()
	total := r.u64()
	correct := r.u64()
	if r.short {
		return fmt.Errorf("%w: monitor snapshot truncated", ErrSnapshot)
	}
	if n != m.cls.NumPhases() {
		return fmt.Errorf("%w: monitor snapshot has %d phases, classifier has %d",
			ErrSnapshot, n, m.cls.NumPhases())
	}
	counts := make([][]int, n+1)
	for actual := range counts {
		counts[actual] = make([]int, n+1)
		for predicted := range counts[actual] {
			counts[actual][predicted] = int(r.u64())
		}
	}
	predLen := int(r.u32())
	predState := r.bytes(predLen)
	if err := r.done("monitor"); err != nil {
		return err
	}
	tally, err := stats.TallyFromCounts(int(total), int(correct))
	if err != nil {
		return fmt.Errorf("%w: monitor snapshot tally: %v", ErrSnapshot, err)
	}
	confusion, err := stats.NewConfusionFromCounts(counts)
	if err != nil {
		return fmt.Errorf("%w: monitor snapshot confusion: %v", ErrSnapshot, err)
	}
	if err := sp.Restore(predState); err != nil {
		return err
	}
	m.lastPrediction = lastPrediction
	m.lastActual = lastActual
	m.steps = int(steps)
	m.tally = tally
	m.confusion = confusion
	return nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
