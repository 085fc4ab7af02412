package telemetry

import (
	"math"
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

// FuzzJournalRecent checks ring-buffer integrity under arbitrary
// capacity/record/read patterns: Recent never returns more than
// requested or held, events come back oldest-first with contiguous
// sequence numbers, and seq == held + dropped.
func FuzzJournalRecent(f *testing.F) {
	f.Add(uint8(3), uint8(5), uint8(2))
	f.Add(uint8(1), uint8(9), uint8(0))
	f.Add(uint8(8), uint8(8), uint8(8))
	f.Fuzz(func(t *testing.T, capacity, records, ask uint8) {
		cap_ := int(capacity%32) + 1
		j := NewJournal(cap_)
		n := int(records % 64)
		journalPMIs(j, n)
		if j.Seq() != uint64(n) {
			t.Fatalf("seq = %d, want %d", j.Seq(), n)
		}
		held := n
		if held > cap_ {
			held = cap_
		}
		if j.Len() != held {
			t.Fatalf("len = %d, want %d", j.Len(), held)
		}
		if j.Dropped() != uint64(n-held) {
			t.Fatalf("dropped = %d, want %d", j.Dropped(), n-held)
		}
		got := j.Recent(int(ask))
		wantLen := held
		if a := int(ask); a > 0 && a < wantLen {
			wantLen = a
		}
		if len(got) != wantLen {
			t.Fatalf("Recent(%d) returned %d events, want %d", ask, len(got), wantLen)
		}
		for i, e := range got {
			wantSeq := uint64(n - wantLen + i)
			if e.Seq != wantSeq || e.Step != int(wantSeq) {
				t.Fatalf("event %d = %+v, want seq %d", i, e, wantSeq)
			}
		}
	})
}
