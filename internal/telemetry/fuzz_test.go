package telemetry

import (
	"math"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"testing"
)

// FuzzHistogramObserve checks the bucket boundary logic: every non-NaN
// sample must land in exactly one bucket, that bucket must be the
// first whose upper bound is >= the sample (le semantics), and the
// cumulative counts must stay monotone. The bounds themselves are
// fuzzed alongside the sample.
func FuzzHistogramObserve(f *testing.F) {
	f.Add(0.004, 0.005, 0.010, 0.030)
	f.Add(0.005, 0.005, 0.010, 0.030) // exactly on a bound
	f.Add(1e9, 0.001, 0.002, 0.003)   // beyond every bound
	f.Add(-5.0, -1.0, 0.0, 1.0)       // negative bounds are legal
	f.Add(math.Inf(1), 1.0, 2.0, 3.0)
	f.Fuzz(func(t *testing.T, v, b0, b1, b2 float64) {
		bounds := []float64{b0, b1, b2}
		h, err := NewHistogram(bounds)
		if err != nil {
			// Unordered or non-finite fuzzed bounds are correctly
			// rejected; nothing further to check.
			return
		}
		h.Observe(v)
		s := h.Snapshot()

		if math.IsNaN(v) {
			if s.Count != 0 {
				t.Fatalf("NaN observation must be dropped, got count %d", s.Count)
			}
			return
		}
		if s.Count != 1 {
			t.Fatalf("count = %d after one observation", s.Count)
		}

		// Exactly one bucket holds the sample, and no sample may land
		// out of range: the +Inf bucket is always a legal landing spot.
		landed := -1
		total := uint64(0)
		for i, c := range s.Counts {
			total += c
			if c == 1 {
				if landed != -1 {
					t.Fatalf("sample in two buckets: %d and %d", landed, i)
				}
				landed = i
			} else if c != 0 {
				t.Fatalf("bucket %d count = %d", i, c)
			}
		}
		if total != 1 || landed == -1 {
			t.Fatalf("sample landed nowhere: %+v", s)
		}

		// le semantics: landed is the first bucket with v <= bound.
		want := len(bounds)
		for i, b := range bounds {
			if v <= b {
				want = i
				break
			}
		}
		if landed != want {
			t.Fatalf("v=%v bounds=%v landed in bucket %d, want %d", v, bounds, landed, want)
		}

		// Cumulative counts must be monotone non-decreasing.
		var cum, prev uint64
		for _, c := range s.Counts {
			cum += c
			if cum < prev {
				t.Fatalf("cumulative counts not monotone: %+v", s)
			}
			prev = cum
		}
	})
}

// FuzzJournalRecent checks the journal ring differentially: a hub's
// step batches publish random-size batches of all four event kinds —
// batches larger than the capacity, batches that straddle the wrap —
// and after every Publish the journal must answer Len, Cap, Seq,
// Dropped, Recent and the /events JSON export exactly as refJournal,
// the slot-by-slot ring of built Events the journal used to be, fed
// the same records. It also keeps the ring's own invariants: Recent
// never returns more than requested or held, events come back
// oldest-first with contiguous sequence numbers, and seq == held +
// dropped.
func FuzzJournalRecent(f *testing.F) {
	f.Add(uint8(3), int64(1), []byte{5, 2, 0, 7})
	f.Add(uint8(1), int64(2), []byte{9})
	f.Add(uint8(8), int64(3), []byte{8, 8, 8, 17, 3})
	f.Add(uint8(31), int64(4), []byte{40, 70, 1, 29, 64})
	f.Fuzz(func(t *testing.T, capacity uint8, seed int64, sizes []byte) {
		cap_ := int(capacity%32) + 1
		h := NewHub(6)
		h.Journal = NewJournal(cap_)
		j := h.Journal
		ref := &refJournal{buf: make([]Event, cap_)}
		b := h.NewStepBatch()
		events := h.PrefixHandler()
		rng := rand.New(rand.NewSource(seed))
		step := 0
		for round, sz := range sizes {
			// Up to twice the capacity plus a few, so batches both fit,
			// wrap and overflow the ring.
			for n := int(sz) % (2*cap_ + 4); n > 0; n-- {
				x, y := rng.Intn(8), rng.Intn(8)
				ns := rng.Int63()
				switch rng.Intn(4) {
				case 0: // a verdict alone (none when x is 0, phase.None)
					b.Fold(step, 0.01, y, x, y, x, ns)
				case 1: // a verdict, then a transition when x != y
					b.Fold(step, 0.01, x, y, y, y, ns)
				case 2:
					b.DVFSChange(step, x, y, ns)
				default:
					b.PMISample(step, rng.Float64(), 2*rng.Float64(), ns)
				}
				step++
			}
			ref.append(b.events)
			b.Publish()

			if j.Len() != ref.n || j.Cap() != len(ref.buf) || j.Seq() != ref.seq || j.Dropped() != ref.dropped {
				t.Fatalf("round %d: len/cap/seq/dropped = %d/%d/%d/%d, reference %d/%d/%d/%d", round,
					j.Len(), j.Cap(), j.Seq(), j.Dropped(), ref.n, len(ref.buf), ref.seq, ref.dropped)
			}
			if j.Seq() != uint64(j.Len())+j.Dropped() {
				t.Fatalf("round %d: seq %d != held %d + dropped %d", round, j.Seq(), j.Len(), j.Dropped())
			}
			ask := rng.Intn(cap_ + 2)
			got, want := j.Recent(ask), ref.recent(ask)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: Recent(%d) = %+v, reference %+v", round, ask, got, want)
			}
			for i, e := range got {
				if e.Seq != j.Seq()-uint64(len(got)-i) {
					t.Fatalf("round %d: event %d has seq %d; want contiguous up to %d", round, i, e.Seq, j.Seq()-1)
				}
			}
			rec := httptest.NewRecorder()
			events.ServeHTTP(rec, httptest.NewRequest("GET", "/events", nil))
			wantJSON := httptest.NewRecorder()
			writeJSON(wantJSON, ref.recent(0))
			if rec.Body.String() != wantJSON.Body.String() {
				t.Fatalf("round %d: /events = %s, reference %s", round, rec.Body, wantJSON.Body)
			}
		}
	})
}

// refJournal is the reference ring for FuzzJournalRecent: the journal
// as it was when it held built Events, claiming one slot per event
// and evicting the oldest when full.
type refJournal struct {
	buf          []Event
	start, n     int
	seq, dropped uint64
}

func (r *refJournal) append(evs []stepEvent) {
	for i := range evs {
		e := &evs[i]
		var slot *Event
		if r.n < len(r.buf) {
			r.n++
			slot = &r.buf[(r.start+r.n-1)%len(r.buf)]
		} else {
			slot = &r.buf[r.start]
			r.start = (r.start + 1) % len(r.buf)
			r.dropped++
		}
		*slot = Event{Seq: r.seq, Kind: e.kind, Step: e.step, UnixNs: e.unixNs}
		switch e.kind {
		case KindPrediction:
			slot.Predicted, slot.Actual, slot.Correct = int(e.a), int(e.b), e.a == e.b
		case KindPMISample:
			slot.MemPerUop, slot.UPC = math.Float64frombits(uint64(e.a)), math.Float64frombits(uint64(e.b))
		default:
			slot.From, slot.To = int(e.a), int(e.b)
		}
		r.seq++
	}
}

func (r *refJournal) recent(max int) []Event {
	n := r.n
	if max > 0 && max < n {
		n = max
	}
	out := make([]Event, n)
	first := r.start + (r.n - n)
	for i := 0; i < n; i++ {
		out[i] = r.buf[(first+i)%len(r.buf)]
	}
	return out
}
