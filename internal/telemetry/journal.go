package telemetry

import (
	"fmt"
	"math"
	"strings"
	"sync"
)

// EventKind discriminates journal events.
type EventKind uint8

// The event types the instrumented hot paths emit.
const (
	// KindPhaseTransition marks the classified phase changing between
	// consecutive intervals.
	KindPhaseTransition EventKind = iota + 1
	// KindPrediction records one scored prediction: what the predictor
	// said, what actually happened, and the verdict.
	KindPrediction
	// KindDVFSChange records an operating-point transition.
	KindDVFSChange
	// KindPMISample records one PMI delivery with its counter-derived
	// metrics.
	KindPMISample
)

// String names the kind as it appears in JSON exports.
func (k EventKind) String() string {
	switch k {
	case KindPhaseTransition:
		return "phase_transition"
	case KindPrediction:
		return "prediction"
	case KindDVFSChange:
		return "dvfs_change"
	case KindPMISample:
		return "pmi_sample"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// MarshalJSON renders the kind as its string name.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON parses the string names MarshalJSON emits, so journal
// exports round-trip through JSON.
func (k *EventKind) UnmarshalJSON(b []byte) error {
	s := strings.Trim(string(b), `"`)
	for _, kind := range []EventKind{KindPhaseTransition, KindPrediction, KindDVFSChange, KindPMISample} {
		if s == kind.String() {
			*k = kind
			return nil
		}
	}
	return fmt.Errorf("telemetry: unknown event kind %q", s)
}

// Event is one journal record. Phases and DVFS settings are carried as
// plain ints so the telemetry layer stays free of the packages it
// observes; the meaning of From/To follows the Kind (phases for
// KindPhaseTransition, ladder settings for KindDVFSChange).
type Event struct {
	// Seq is the journal-assigned monotone sequence number.
	Seq uint64 `json:"seq"`
	// Kind discriminates the remaining fields.
	Kind EventKind `json:"kind"`
	// Step is the sampling interval index the event belongs to: the
	// monitor step, which in a simulated run is also the kernel-log
	// index. A DVFS change carries the index of the interval whose
	// actuation made it.
	Step int `json:"step"`
	// UnixNs stamps the interval (or, on the serving path, the session
	// batch) the event belongs to; all of one interval's events share
	// it. A simulated run stamps simulated nanoseconds since the run
	// started, when the interval's PMI fired; the live loops and
	// phased stamp their hub clock reading, in Unix nanoseconds.
	UnixNs int64 `json:"unix_ns,omitempty"`
	// From and To describe a transition (phase or setting, per Kind).
	From int `json:"from,omitempty"`
	To   int `json:"to,omitempty"`
	// Predicted, Actual and Correct describe a KindPrediction verdict.
	Predicted int  `json:"predicted,omitempty"`
	Actual    int  `json:"actual,omitempty"`
	Correct   bool `json:"correct,omitempty"`
	// MemPerUop and UPC carry a KindPMISample's counter readings.
	MemPerUop float64 `json:"mem_per_uop,omitempty"`
	UPC       float64 `json:"upc,omitempty"`
}

// DefaultJournalCapacity bounds the default event journal. At one
// prediction plus one PMI sample per 100M-uop interval this holds a
// few minutes of recent history.
const DefaultJournalCapacity = 4096

// Journal is a bounded ring buffer of recent events. When full, the
// oldest event is overwritten and the dropped count incremented — the
// journal is a window onto the recent past, never a complete log (the
// kernelsim log keeps the complete per-interval record). The ring
// holds the stepping loops' compact 40-byte records; Recent builds
// each Event, with its Seq derived from the record's position, so
// journaling a batch is a copy and only the events that are read are
// ever built. All methods are safe for concurrent use and no-ops on a
// nil receiver.
type Journal struct {
	mu      sync.Mutex
	buf     []stepEvent // guarded by mu
	start   int         // guarded by mu; index of the oldest event
	n       int         // guarded by mu; events currently held
	seq     uint64      // guarded by mu
	dropped uint64      // guarded by mu
}

// NewJournal builds a journal holding at most capacity events;
// capacity < 1 selects DefaultJournalCapacity.
func NewJournal(capacity int) *Journal {
	if capacity < 1 {
		capacity = DefaultJournalCapacity
	}
	return &Journal{buf: make([]stepEvent, capacity)}
}

// appendSteps journals a batch of step events in one lock section, so
// a batch's events sit contiguously in the ring with consecutive
// sequence numbers: at most two copies (the ring's tail, then its
// head), then the counts. Of a batch larger than the ring only its
// newest cap events are kept; the rest count as dropped.
// StepBatch.Publish is its only caller: the one journal write path.
//
//lint:hotpath
func (j *Journal) appendSteps(evs []stepEvent) {
	if j == nil || len(evs) == 0 {
		return
	}
	j.mu.Lock()
	c := len(j.buf)
	total := len(evs)
	if len(evs) > c {
		evs = evs[len(evs)-c:]
	}
	// The write position is one past the newest held event; events
	// past the ring's free room evict the oldest ones.
	at := (j.start + j.n) % c
	k := copy(j.buf[at:], evs)
	copy(j.buf, evs[k:])
	evicted := max(j.n+total-c, 0)
	j.n = min(j.n+total, c)
	j.start = (at + len(evs) - j.n + c) % c
	j.seq += uint64(total)
	j.dropped += uint64(evicted)
	j.mu.Unlock()
}

// event builds the Event of a journaled record with sequence number
// seq.
func (e *stepEvent) event(seq uint64) Event {
	ev := Event{Seq: seq, Kind: e.kind, Step: e.step, UnixNs: e.unixNs}
	switch e.kind {
	case KindPrediction:
		ev.Predicted, ev.Actual, ev.Correct = int(e.a), int(e.b), e.a == e.b
	case KindPMISample:
		ev.MemPerUop, ev.UPC = math.Float64frombits(uint64(e.a)), math.Float64frombits(uint64(e.b))
	default:
		ev.From, ev.To = int(e.a), int(e.b)
	}
	return ev
}

// Recent returns up to max of the newest events, oldest first. max < 1
// returns everything held.
func (j *Journal) Recent(max int) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	n := j.n
	if max > 0 && max < n {
		n = max
	}
	out := make([]Event, n)
	first := j.start + (j.n - n) // skip the oldest j.n-n events
	seq := j.seq - uint64(n)     // the newest event's Seq is j.seq-1
	for i := range out {
		out[i] = j.buf[(first+i)%len(j.buf)].event(seq + uint64(i))
	}
	return out
}

// Len returns how many events the journal currently holds.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
}

// Cap returns the journal's capacity.
func (j *Journal) Cap() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.buf)
}

// Seq returns how many events have ever been recorded.
func (j *Journal) Seq() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Dropped returns how many events were evicted unread by wraparound.
func (j *Journal) Dropped() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}
