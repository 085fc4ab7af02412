package phased

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"phasemon/internal/core"
	"phasemon/internal/phase"
	"phasemon/internal/telemetry"
	"phasemon/internal/wire"
)

// telSpecs are the predictors the telemetry-equivalence sessions
// serve, cycled over the sessions: GPHTs of two geometries (their PHT
// lookups are counted) and two predictors without a PHT.
var telSpecs = []string{"gpht_8_128", "gpht_4_16", "lastvalue", "fixwindow_8"}

// telStreams builds one seeded sample stream per session, with Mem/Uop
// spread over every phase and the occasional zero-uop sample.
func telStreams(sessions, samples int) [][]wire.Sample {
	rng := rand.New(rand.NewSource(19))
	out := make([][]wire.Sample, sessions)
	for s := range out {
		for i := 0; i < samples; i++ {
			uops := uint64(1e7)
			if rng.Intn(50) == 0 {
				uops = 0
			}
			out[s] = append(out[s], wire.Sample{SessionID: uint64(s + 1), Seq: uint64(i),
				Uops: uops, MemTx: uint64(rng.Intn(400)) * 1e3, Cycles: uint64(5e6 + rng.Intn(1e7))})
		}
	}
	return out
}

// telStamp is the journal stamp of session s's batch b: distinct per
// session, so each session's events can be picked out of a journal
// several sessions share.
func telStamp(s, b int) int64 { return int64(s+1)*1e9 + int64(b) }

// stepReference steps every stream through core.Monitor.StepAt with
// one publication per step — the simulated PMI handler's shape — into
// a hub whose clock reads the stamp of the batch a worker would have
// stepped the sample in, visiting the session batches in the given
// order.
func stepReference(t *testing.T, streams [][]wire.Sample, k int, order [][2]int) *telemetry.Hub {
	t.Helper()
	cls := phase.Default()
	var now int64
	hub := telemetry.NewHub(cls.NumPhases(), telemetry.WithClock(func() time.Time { return time.Unix(0, now) }))
	mons := make([]*core.Monitor, len(streams))
	for s := range mons {
		pred, err := core.NewPredictorFromSpec(telSpecs[s%len(telSpecs)], core.SpecEnv{Classifier: cls})
		if err != nil {
			t.Fatal(err)
		}
		if mons[s], err = core.NewMonitor(cls, pred); err != nil {
			t.Fatal(err)
		}
	}
	tel := hub.NewStepBatch()
	for _, sb := range order {
		s, b := sb[0], sb[1]
		now = telStamp(s, b)
		for _, smp := range streams[s][b*k : min((b+1)*k, len(streams[s]))] {
			mons[s].StepAt(phase.FromCounters(smp.Uops, smp.MemTx, smp.Cycles), tel, hub.Now().UnixNano())
			tel.Publish()
		}
	}
	return hub
}

// telSessions opens one served session per stream on a server
// publishing into a fresh hub.
func telSessions(t *testing.T, streams [][]wire.Sample, workers int) (*Server, []*session, *telemetry.Hub) {
	t.Helper()
	hub := telemetry.NewHub(phase.Default().NumPhases())
	srv, err := New(Config{Telemetry: hub, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	sess := make([]*session, len(streams))
	for s := range sess {
		if sess[s], _, err = srv.newSession(nil, uint64(s+1), []byte(telSpecs[s%len(telSpecs)]), nil); err != nil {
			t.Fatal(err)
		}
	}
	return srv, sess, hub
}

// stepBatch steps session s's batch b of k samples as a worker does:
// every step records into the worker's StepBatch, stamped with the
// batch's time, and the batch is published once.
func stepBatch(sess *session, tel *telemetry.StepBatch, stream []wire.Sample, s, b, k int) {
	var p wire.Prediction
	for i := b * k; i < min((b+1)*k, len(stream)); i++ {
		sess.step(&stream[i], &p, 0, tel, telStamp(s, b))
	}
	tel.Publish()
}

// batchOrder visits the session batches round-robin: batch 0 of every
// session, then batch 1, and so on, as a worker serving interleaved
// sessions would.
func batchOrder(sessions, samples, k int, keep func(s int) bool) [][2]int {
	var out [][2]int
	for b := 0; b*k < samples; b++ {
		for s := 0; s < sessions; s++ {
			if keep(s) {
				out = append(out, [2]int{s, b})
			}
		}
	}
	return out
}

// sessionEvents splits a journal into each session's events, by stamp.
func sessionEvents(evs []telemetry.Event) map[int64][]string {
	out := map[int64][]string{}
	for _, e := range evs {
		s := e.UnixNs / 1e9
		e.Seq = 0 // global position; only the per-session order is compared
		out[s] = append(out[s], fmt.Sprintf("%+v", e))
	}
	return out
}

// assertHubsMatch compares what batched publication left in got with
// what per-step publication left in want: exact counters, confusion
// matrix, Mem/Uop buckets and per-session journal subsequences, the
// Mem/Uop sum up to float reassociation and, when the publication
// order is deterministic, the final gauges.
func assertHubsMatch(t *testing.T, got, want *telemetry.Hub, gauges bool) {
	t.Helper()
	for _, c := range []struct {
		name      string
		got, want *telemetry.Counter
	}{
		{"steps", got.Steps, want.Steps},
		{"mispredictions", got.Mispredictions, want.Mispredictions},
		{"phase transitions", got.PhaseTransitions, want.PhaseTransitions},
		{"GPHT hits", got.GPHTHits, want.GPHTHits},
		{"GPHT misses", got.GPHTMisses, want.GPHTMisses},
	} {
		if c.got.Value() != c.want.Value() {
			t.Errorf("%s = %d, per-step publication gives %d", c.name, c.got.Value(), c.want.Value())
		}
	}
	if want.GPHTHits.Value() == 0 || want.GPHTMisses.Value() == 0 || want.PhaseTransitions.Value() == 0 {
		t.Fatal("the streams exercise no GPHT hit, miss or transition")
	}
	if g, w := fmt.Sprint(got.Accuracy().Confusion), fmt.Sprint(want.Accuracy().Confusion); g != w {
		t.Errorf("confusion = %s, per-step publication gives %s", g, w)
	}
	gm, wm := got.MemPerUop.Snapshot(), want.MemPerUop.Snapshot()
	if fmt.Sprint(gm.Counts) != fmt.Sprint(wm.Counts) {
		t.Errorf("Mem/Uop buckets = %v, per-step publication gives %v", gm.Counts, wm.Counts)
	}
	if math.Abs(gm.Sum-wm.Sum) > 1e-9*math.Abs(wm.Sum) {
		t.Errorf("Mem/Uop sum = %v, per-step publication gives %v", gm.Sum, wm.Sum)
	}
	if gauges {
		if got.CurrentPhase.Value() != want.CurrentPhase.Value() || got.PredictedPhase.Value() != want.PredictedPhase.Value() {
			t.Errorf("gauges current/predicted = %v/%v, per-step publication gives %v/%v",
				got.CurrentPhase.Value(), got.PredictedPhase.Value(), want.CurrentPhase.Value(), want.PredictedPhase.Value())
		}
	}
	if got.Journal.Dropped() != 0 || want.Journal.Dropped() != 0 {
		t.Fatal("journal wrapped; the per-session comparison needs every event")
	}
	ge, we := sessionEvents(got.Journal.Recent(0)), sessionEvents(want.Journal.Recent(0))
	if len(ge) != len(we) {
		t.Errorf("journal covers %d sessions, per-step publication %d", len(ge), len(we))
	}
	for s, w := range we {
		g := ge[s]
		if len(g) != len(w) {
			t.Errorf("session %d journaled %d events, per-step publication %d", s, len(g), len(w))
			continue
		}
		for i := range w {
			if g[i] != w[i] {
				t.Errorf("session %d event %d = %s, per-step publication gives %s", s, i, g[i], w[i])
				break
			}
		}
	}
}

// TestBatchedTelemetryEqualsPerStep: publishing served steps once per
// session batch, through a worker's StepBatch, leaves the hub exactly
// where publishing every step through core.Monitor.Step does, for
// batches of 1, 7 and 64 over interleaved sessions.
func TestBatchedTelemetryEqualsPerStep(t *testing.T) {
	const sessions, samples = 6, 150
	streams := telStreams(sessions, samples)
	for _, k := range []int{1, 7, 64} {
		t.Run(fmt.Sprintf("batch%d", k), func(t *testing.T) {
			order := batchOrder(sessions, samples, k, func(int) bool { return true })
			want := stepReference(t, streams, k, order)
			srv, sess, got := telSessions(t, streams, 1)
			tel := srv.workers[0].tel
			for _, sb := range order {
				stepBatch(sess[sb[0]], tel, streams[sb[0]], sb[0], sb[1], k)
			}
			assertHubsMatch(t, got, want, true)
		})
	}
}

// TestBatchedTelemetryTwoWorkers: two workers publishing their batches
// into one hub concurrently leave it where per-step publication does,
// up to the order of whole batches — which the journal comparison,
// per session, and the counters, sums of integers, do not see. Run
// under -race by make serve-race.
func TestBatchedTelemetryTwoWorkers(t *testing.T) {
	const sessions, samples, k = 6, 150, 7
	streams := telStreams(sessions, samples)
	want := stepReference(t, streams, k, batchOrder(sessions, samples, k, func(int) bool { return true }))
	srv, sess, got := telSessions(t, streams, 2)
	var wg sync.WaitGroup
	for w := range srv.workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tel := srv.workers[w].tel
			for _, sb := range batchOrder(sessions, samples, k, func(s int) bool { return s%2 == w }) {
				stepBatch(sess[sb[0]], tel, streams[sb[0]], sb[0], sb[1], k)
			}
		}(w)
	}
	wg.Wait()
	assertHubsMatch(t, got, want, false)
}
