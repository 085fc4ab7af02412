package telemetry

import (
	"math"
	"testing"
	"unsafe"
)

// TestStepBatchPublish pins what one Publish of folded intervals
// applies: the counters, the confusion cells, the Mem/Uop buckets and
// sum, the last gauge values, and the batch's events journaled
// contiguously with consecutive sequence numbers — past the ring's
// capacity too, where the oldest are evicted and counted as dropped. A
// published batch is empty: publishing it again changes nothing.
func TestStepBatchPublish(t *testing.T) {
	h := NewHub(3)
	h.Journal = NewJournal(4)
	journalPMIs(h.Journal, 1)
	b := h.NewStepBatch()
	// Step i was predicted phase 1, classified phase i%3+1 after phase
	// i (always a transition), and predicts phase 2.
	for i, mem := range []float64{0.001, 0.012, 0.05, math.NaN()} {
		b.Fold(i, mem, i, 1, i%3+1, 2, int64(100+i))
	}
	b.GPHTLookups(2, 2)
	for _, again := range []bool{false, true} {
		b.Publish()
		for _, c := range []struct {
			name string
			got  uint64
			want uint64
		}{
			{"steps", h.Steps.Value(), 4},
			{"mispredictions", h.Mispredictions.Value(), 2},
			{"transitions", h.PhaseTransitions.Value(), 4},
			{"GPHT hits", h.GPHTHits.Value(), 2},
			{"GPHT misses", h.GPHTMisses.Value(), 2},
			{"journal seq", h.Journal.Seq(), 9},
			{"journal dropped", h.Journal.Dropped(), 5},
		} {
			if c.got != c.want {
				t.Errorf("again=%v: %s = %d, want %d", again, c.name, c.got, c.want)
			}
		}
		if h.CurrentPhase.Value() != 1 || h.PredictedPhase.Value() != 2 {
			t.Errorf("gauges = %v/%v, want the last recorded 1/2", h.CurrentPhase.Value(), h.PredictedPhase.Value())
		}
		m := h.MemPerUop.Snapshot()
		if m.Count != 3 || m.Counts[0] != 1 || m.Counts[2] != 1 || m.Counts[5] != 1 {
			t.Errorf("Mem/Uop buckets = %v, want one each in buckets 0, 2 and +Inf (NaN dropped)", m.Counts)
		}
		if math.Abs(m.Sum-0.063) > 1e-15 {
			t.Errorf("Mem/Uop sum = %v, want 0.063", m.Sum)
		}
		v := h.Accuracy()
		if v.Total != 4 || v.Confusion[1][1] != 2 || v.Confusion[2][1] != 1 || v.Confusion[3][1] != 1 {
			t.Errorf("confusion = %v", v.Confusion)
		}
	}
	evs := h.Journal.Recent(0)
	if len(evs) != 4 {
		t.Fatalf("journal holds %d events, want its capacity 4", len(evs))
	}
	// The newest four of the batch's eight events: steps 2 and 3, each
	// a verdict then a transition, with consecutive sequence numbers.
	for i, e := range evs {
		step := 2 + i/2
		if e.Seq != uint64(5+i) || e.Step != step || e.UnixNs != int64(100+step) {
			t.Errorf("event %d = %+v, want seq %d step %d", i, e, 5+i, step)
		}
		if i%2 == 0 {
			want := Event{Seq: e.Seq, Kind: KindPrediction, Step: step, UnixNs: e.UnixNs,
				Predicted: 1, Actual: step%3 + 1, Correct: step%3 == 0}
			if e != want {
				t.Errorf("event %d = %+v, want %+v", i, e, want)
			}
		} else if e.Kind != KindPhaseTransition || e.From != step || e.To != step%3+1 {
			t.Errorf("event %d = %+v, want transition %d→%d", i, e, step, step%3+1)
		}
	}
}

// TestStepBatchIntervalEvents pins the DVFS-change and PMI-sample
// half of a batch: the transition and sample counters, the
// current-setting gauge at the batch's last change (untouched by a
// batch without one), and the events journaled in recording order
// with their step, stamp and operands — the PMI readings exactly,
// NaN and negative zero included.
func TestStepBatchIntervalEvents(t *testing.T) {
	h := NewHub(6)
	h.CurrentSetting.Set(5)
	b := h.NewStepBatch()
	b.PMISample(0, math.NaN(), math.Copysign(0, -1), 10)
	b.Publish()
	if h.CurrentSetting.Value() != 5 {
		t.Errorf("a batch without a DVFS change moved the setting gauge to %v", h.CurrentSetting.Value())
	}
	b.Fold(1, 0.012, 3, 2, 3, 2, 20) // a verdict alone: no transition
	b.DVFSChange(1, 0, 3, 20)
	b.PMISample(1, 0.012, 0.8, 20)
	b.DVFSChange(2, 3, 1, 30)
	b.Publish()
	if h.DVFSTransitions.Value() != 2 || h.PMISamples.Value() != 2 {
		t.Errorf("DVFS transitions %d, PMI samples %d, want 2 and 2", h.DVFSTransitions.Value(), h.PMISamples.Value())
	}
	if h.CurrentSetting.Value() != 1 {
		t.Errorf("setting gauge = %v, want the last change's 1", h.CurrentSetting.Value())
	}
	evs := h.Journal.Recent(0)
	if len(evs) != 5 {
		t.Fatalf("journal holds %d events, want 5", len(evs))
	}
	if e := evs[0]; e.Kind != KindPMISample || !math.IsNaN(e.MemPerUop) || math.Float64bits(e.UPC) != 1<<63 {
		t.Errorf("event 0 = %+v, want a pmi_sample of NaN and -0", e)
	}
	for i, want := range []Event{
		{Seq: 1, Kind: KindPrediction, Step: 1, UnixNs: 20, Predicted: 2, Actual: 3},
		{Seq: 2, Kind: KindDVFSChange, Step: 1, UnixNs: 20, From: 0, To: 3},
		{Seq: 3, Kind: KindPMISample, Step: 1, UnixNs: 20, MemPerUop: 0.012, UPC: 0.8},
		{Seq: 4, Kind: KindDVFSChange, Step: 2, UnixNs: 30, From: 3, To: 1},
	} {
		if evs[i+1] != want {
			t.Errorf("event %d = %+v, want %+v", i+1, evs[i+1], want)
		}
	}
}

// TestStepEventSize guards the batch's per-event footprint: the
// serving path appends one stepEvent per served verdict.
func TestStepEventSize(t *testing.T) {
	if unsafe.Sizeof(0) != 8 {
		t.Skip("sized for 64-bit platforms")
	}
	if got := unsafe.Sizeof(stepEvent{}); got != 40 {
		t.Errorf("stepEvent is %d bytes, want 40", got)
	}
}

// TestStepBatchZeroAlloc: once its buffers have grown to a batch's
// size, recording and publishing a batch allocates nothing.
func TestStepBatchZeroAlloc(t *testing.T) {
	h := NewHub(6)
	b := h.NewStepBatch()
	run := func() {
		for i := 0; i < 64; i++ {
			b.Fold(i, float64(i%7)*0.006, i%6+1, (i/2)%6+1, (i+1)%6+1, i%6+1, int64(i))
			b.GPHTLookups(uint64(i%2), 1)
			b.DVFSChange(i, i%6, (i+1)%6, int64(i))
			b.PMISample(i, 0.01, 1.2, int64(i))
		}
		b.Publish()
	}
	run()
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("a 64-step batch allocates %.1f times, want 0", allocs)
	}
}
