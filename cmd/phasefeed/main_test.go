package main

import (
	"testing"

	"phasemon/internal/dvfs"
	"phasemon/internal/kernelsim"
	"phasemon/internal/phase"
	"phasemon/internal/wire"
)

// checkLog is a local run of n intervals cycling through the six
// phases, with the translation its replies are checked against.
func checkLog(t *testing.T, n int) ([]kernelsim.Entry, *dvfs.Translation) {
	t.Helper()
	trans, err := dvfs.Identity(dvfs.PentiumM(), 6)
	if err != nil {
		t.Fatal(err)
	}
	log := make([]kernelsim.Entry, n)
	for i := range log {
		log[i] = kernelsim.Entry{Index: i, Actual: phase.ID(1 + i%6), Predicted: phase.ID(1 + (i+1)%6)}
	}
	return log, trans
}

// reply is the server's correct answer to sample seq.
func reply(log []kernelsim.Entry, trans *dvfs.Translation, seq int) wire.Prediction {
	e := log[seq]
	return wire.Prediction{Seq: uint64(seq), Actual: uint8(e.Actual), Next: uint8(e.Predicted), Setting: uint8(trans.Setting(e.Predicted))}
}

// mismatches runs a checker over replies to a log of n samples,
// closing the stream at its end.
func mismatches(log []kernelsim.Entry, trans *dvfs.Translation, replies []wire.Prediction) int {
	c := newChecker(log, trans)
	n := 0
	for i := range replies {
		n += c.verify(&replies[i])
	}
	return n + c.lost(len(log))
}

// TestCheckCountsEachFault: a correct stream scores 0, and each single
// fault in it — a wrong phase, prediction or setting, a reply skipped,
// repeated or swapped with the next one, or one answering no sample —
// scores exactly one mismatch.
func TestCheckCountsEachFault(t *testing.T) {
	const n = 8
	log, trans := checkLog(t, n)
	correct := func() []wire.Prediction {
		out := make([]wire.Prediction, n)
		for i := range out {
			out[i] = reply(log, trans, i)
		}
		return out
	}
	if got := mismatches(log, trans, correct()); got != 0 {
		t.Fatalf("correct stream: %d mismatches, want 0", got)
	}
	cases := []struct {
		name  string
		fault func([]wire.Prediction) []wire.Prediction
	}{
		{"wrong Actual", func(r []wire.Prediction) []wire.Prediction { r[3].Actual++; return r }},
		{"wrong Next", func(r []wire.Prediction) []wire.Prediction { r[3].Next++; return r }},
		{"wrong Setting", func(r []wire.Prediction) []wire.Prediction { r[3].Setting++; return r }},
		{"skipped", func(r []wire.Prediction) []wire.Prediction { return append(r[:3], r[4:]...) }},
		{"skipped first", func(r []wire.Prediction) []wire.Prediction { return r[1:] }},
		{"repeated", func(r []wire.Prediction) []wire.Prediction {
			return append(r[:4], append([]wire.Prediction{r[3]}, r[4:]...)...)
		}},
		{"reordered", func(r []wire.Prediction) []wire.Prediction { r[3], r[4] = r[4], r[3]; return r }},
		{"reordered last", func(r []wire.Prediction) []wire.Prediction { r[n-2], r[n-1] = r[n-1], r[n-2]; return r }},
		{"past the log", func(r []wire.Prediction) []wire.Prediction {
			return append(r, wire.Prediction{Seq: n})
		}},
	}
	for _, c := range cases {
		if got := mismatches(log, trans, c.fault(correct())); got != 1 {
			t.Errorf("%s: %d mismatches, want 1", c.name, got)
		}
	}
}

// TestCheckAcrossResume: a stream that a drain cuts after the
// snapshot's LastSeq resumes expecting LastSeq+1. Every reply through
// LastSeq must have arrived before the cut; one that never did counts
// once, and a reply from before the cut arriving after it counts too.
func TestCheckAcrossResume(t *testing.T) {
	const n, lastSeq = 10, 5
	log, trans := checkLog(t, n)
	run := func(before, after []int) int {
		c := newChecker(log, trans)
		m := 0
		for _, seq := range before {
			p := reply(log, trans, seq)
			m += c.verify(&p)
		}
		m += c.lost(lastSeq + 1)
		for _, seq := range after {
			p := reply(log, trans, seq)
			m += c.verify(&p)
		}
		return m + c.lost(n)
	}
	for _, c := range []struct {
		name          string
		before, after []int
		want          int
	}{
		{"clean", []int{0, 1, 2, 3, 4, 5}, []int{6, 7, 8, 9}, 0},
		{"last reply lost in the drain", []int{0, 1, 2, 3, 4}, []int{6, 7, 8, 9}, 1},
		{"first reply after the resume skipped", []int{0, 1, 2, 3, 4, 5}, []int{7, 8, 9}, 1},
		{"replayed after resume", []int{0, 1, 2, 3, 4, 5}, []int{5, 6, 7, 8, 9}, 1},
	} {
		if got := run(c.before, c.after); got != c.want {
			t.Errorf("%s: %d mismatches, want %d", c.name, got, c.want)
		}
	}
}
