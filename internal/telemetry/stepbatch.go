package telemetry

import "math"

// stepEvent is one journal event a stepping loop produced, held
// compactly in the batch and then in the journal ring, until Recent
// builds its Event: a prediction verdict (a = predicted, b = actual),
// a phase or DVFS transition (a = from, b = to), or a PMI sample
// (a, b = the Mem/Uop and UPC readings' math.Float64bits). It stays 40
// bytes: the serving path journals one per served verdict.
type stepEvent struct {
	step   int
	unixNs int64
	a, b   int64
	kind   EventKind
}

// StepBatch collects the telemetry of a run of monitored intervals so
// it reaches the hub in one Publish: the step count, the Mem/Uop
// bucket counts and partial sum, the misprediction, phase-transition,
// DVFS-transition and PMI-sample counts, the confusion cells, the GPHT
// hit/miss counts, the last current and predicted phase and DVFS
// setting, and the batch's journal events.
//
// A StepBatch is owned by one stepping loop, which steps its monitor
// bare and folds each interval in once (Fold) from the record it
// already keeps — the simulated PMI handler its kernel-log entry, the
// live loops their (sample, actual, next), a phased worker its reply
// slice. The PMI handler and the live loops publish once per
// interval, a phased worker once per session batch; Publish is the only
// writer of the journal and of the step, PMI and DVFS instruments: one
// atomic add per non-zero cell, one store per gauge that moved and one
// journal lock section for the whole batch. Like every hub handle it
// is nil-safe: NewStepBatch on a nil hub returns nil, and every method
// of a nil batch is a no-op.
type StepBatch struct {
	hub       *Hub
	memHist   *Histogram // hub.MemPerUop, for bucketing
	numPhases int        // hub.numPhases, for confusion cells

	steps, mispredictions, transitions uint64
	gphtHits, gphtMisses               uint64
	dvfsTransitions, pmiSamples        uint64

	mem    []uint64 // Mem/Uop bucket counts, the hub histogram's layout
	memSum float64

	conf  []uint64 // confusion cells, the hub's row-major layout
	dirty []int    // indices of the non-zero conf cells

	current, predicted, setting          int
	currentSet, predictedSet, settingSet bool

	events []stepEvent
}

// NewStepBatch returns an empty batch that publishes into h, or nil
// when h is nil.
func (h *Hub) NewStepBatch() *StepBatch {
	if h == nil {
		return nil
	}
	return &StepBatch{
		hub:       h,
		memHist:   h.MemPerUop,
		numPhases: h.numPhases,
		mem:       make([]uint64, h.MemPerUop.NumBuckets()),
		conf:      make([]uint64, len(h.conf)),
		// Room for one interval's events and cell: a batch of one
		// interval never grows; a longer batch grows its buffers once.
		dirty:  make([]int, 0, 1),
		events: make([]stepEvent, 0, 4),
	}
}

// Fold records one monitored interval from the loop's own record of
// it: its step index, its sample's Mem/Uop reading, the phase the
// previous interval classified as (prev), the prediction pending for
// this one (pending), and this interval's classified phase and
// prediction (actual, next). It counts the step and buckets the
// reading (a NaN reading counts the step but, as in
// Histogram.Observe, no bucket) and moves the current- and
// predicted-phase gauges where they changed. A pending prediction —
// any but 0, phase.None, which is pending only before a monitor's
// first step — is scored: the misprediction count and confusion cell,
// then the verdict and any phase transition journaled stamped unixNs.
//
//lint:hotpath
func (b *StepBatch) Fold(step int, memPerUop float64, prev, pending, actual, next int, unixNs int64) {
	if b == nil {
		return
	}
	b.steps++
	if !math.IsNaN(memPerUop) {
		b.mem[b.memHist.bucket(memPerUop)]++
		b.memSum += memPerUop
	}
	if actual != prev {
		b.current, b.currentSet = actual, true
	}
	if next != pending {
		b.predicted, b.predictedSet = next, true
	}
	if pending == 0 {
		return
	}
	if pending != actual {
		b.mispredictions++
	}
	c := confCell(b.numPhases, actual)*(b.numPhases+1) + confCell(b.numPhases, pending)
	if b.conf[c] == 0 {
		b.dirty = append(b.dirty, c)
	}
	b.conf[c]++
	b.record(KindPrediction, step, int64(pending), int64(actual), unixNs)
	if actual != prev {
		b.transitions++
		b.record(KindPhaseTransition, step, int64(prev), int64(actual), unixNs)
	}
}

// GPHTLookups adds a batch's PHT lookup outcomes: the difference of
// the predictor's running counts (core.PHTLookups) across the batch.
//
//lint:hotpath
func (b *StepBatch) GPHTLookups(hits, misses uint64) {
	if b != nil {
		b.gphtHits += hits
		b.gphtMisses += misses
	}
}

// DVFSChange counts and journals an operating-point change the given
// step's actuation made; Publish moves the current-setting gauge to
// the batch's last one.
//
//lint:hotpath
func (b *StepBatch) DVFSChange(step, from, to int, unixNs int64) {
	if b == nil {
		return
	}
	b.dvfsTransitions++
	b.setting, b.settingSet = to, true
	b.record(KindDVFSChange, step, int64(from), int64(to), unixNs)
}

// PMISample counts and journals one PMI delivery with its
// counter-derived readings.
//
//lint:hotpath
func (b *StepBatch) PMISample(step int, memPerUop, upc float64, unixNs int64) {
	if b == nil {
		return
	}
	b.pmiSamples++
	b.record(KindPMISample, step, int64(math.Float64bits(memPerUop)), int64(math.Float64bits(upc)), unixNs)
}

// record appends one journal event. Its fields are written in place:
// composing the event whole and copying it in costs a store-forwarding
// stall per event.
//
//lint:hotpath
func (b *StepBatch) record(kind EventKind, step int, x, y, unixNs int64) {
	b.events = append(b.events, stepEvent{})
	e := &b.events[len(b.events)-1]
	e.step, e.unixNs, e.a, e.b, e.kind = step, unixNs, x, y, kind
}

// Publish applies the batch to the hub and empties it for reuse.
//
//lint:hotpath
func (b *StepBatch) Publish() {
	if b == nil || b.steps == 0 && len(b.events) == 0 {
		return
	}
	h := b.hub
	if h == nil {
		return
	}
	h.Steps.Add(b.steps)
	addNonZero(h.Mispredictions, b.mispredictions)
	addNonZero(h.PhaseTransitions, b.transitions)
	addNonZero(h.GPHTHits, b.gphtHits)
	addNonZero(h.GPHTMisses, b.gphtMisses)
	addNonZero(h.DVFSTransitions, b.dvfsTransitions)
	addNonZero(h.PMISamples, b.pmiSamples)
	h.MemPerUop.addBatch(b.mem, b.memSum)
	for _, c := range b.dirty {
		h.conf[c].Add(b.conf[c])
		b.conf[c] = 0
	}
	if b.currentSet {
		h.CurrentPhase.Set(float64(b.current))
	}
	if b.predictedSet {
		h.PredictedPhase.Set(float64(b.predicted))
	}
	if b.settingSet {
		h.CurrentSetting.Set(float64(b.setting))
	}
	h.Journal.appendSteps(b.events)

	b.steps, b.mispredictions, b.transitions = 0, 0, 0
	b.gphtHits, b.gphtMisses = 0, 0
	b.dvfsTransitions, b.pmiSamples = 0, 0
	clear(b.mem)
	b.memSum = 0
	b.dirty = b.dirty[:0]
	b.currentSet, b.predictedSet, b.settingSet = false, false, false
	b.events = b.events[:0]
}

// confCell maps a phase ID onto a confusion-matrix index for a hub of
// numPhases phases, clamping None/out-of-range IDs to 0 exactly as
// stats.Confusion does.
func confCell(numPhases, id int) int {
	if id < 1 || id > numPhases {
		return 0
	}
	return id
}

func addNonZero(c *Counter, n uint64) {
	if n != 0 {
		c.Add(n)
	}
}
