package main

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"phasemon/internal/phaseclient"
	"phasemon/internal/phased"
	"phasemon/internal/wire"
)

// replayAgainst streams tr once through an in-process phased server
// over a batching client, as the stream workload does.
func replayAgainst(t *testing.T, tr *nodeTrace) *nodeStats {
	t.Helper()
	srv, err := phased.New(phased.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	defer srv.Shutdown(ctx)
	cl := phaseclient.New(phaseclient.Config{Addr: addr.String(), BatchSize: streamBatch})
	defer cl.Close()
	sess, _, err := cl.Open(ctx, 1, servingSpec, granularity)
	if err != nil {
		t.Fatal(err)
	}
	st := &nodeStats{}
	var stop atomic.Bool
	complete, err := streamReplay(ctx, sess, tr, newWindows(mono(), time.Hour), &stop, false, st)
	if err != nil || !complete {
		t.Fatalf("replay: complete=%v err=%v", complete, err)
	}
	return st
}

func TestStreamReplayChecksEveryPrediction(t *testing.T) {
	traces, err := prepareTraces(5, 1, 600, newCache())
	if err != nil {
		t.Fatal(err)
	}
	tr := &traces[0]
	if st := replayAgainst(t, tr); st.failed != 0 || st.answered != 600 || st.sent != 600 {
		t.Fatalf("clean replay: sent=%d answered=%d failed=%d", st.sent, st.answered, st.failed)
	}

	// Plant one wrong prediction in the expectation: the server's
	// (correct) answer must now count as exactly one failure.
	tr.want[321].next ^= 1
	if st := replayAgainst(t, tr); st.failed != 1 || st.answered != 600 {
		t.Fatalf("planted replay: answered=%d failed=%d, want failed=1", st.answered, st.failed)
	}
}

func TestCheckRejectsEachWrongField(t *testing.T) {
	want := expect{actual: 2, next: 3, setting: 1}
	good := wire.Prediction{Seq: 7, Actual: 2, Next: 3, Setting: 1}
	if !check(&good, 7, want) {
		t.Fatal("correct prediction rejected")
	}
	for name, mut := range map[string]func(*wire.Prediction){
		"seq":     func(p *wire.Prediction) { p.Seq = 8 },
		"actual":  func(p *wire.Prediction) { p.Actual = 1 },
		"next":    func(p *wire.Prediction) { p.Next = 1 },
		"setting": func(p *wire.Prediction) { p.Setting = 0 },
		"shed":    func(p *wire.Prediction) { p.Dropped = 1 },
	} {
		p := good
		mut(&p)
		if check(&p, 7, want) {
			t.Errorf("prediction with wrong %s accepted", name)
		}
	}
}

func TestRunJobsCountsWrongArtifacts(t *testing.T) {
	n := 0
	js, err := runJobs(0, []byte("ok"), func() (childRun, error) {
		n++
		out := []byte("ok")
		if n == 3 {
			out = []byte("bad")
		}
		return childRun{out: out, run: time.Duration(n) * time.Millisecond}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if js.jobs != minJobs || js.failed != 1 {
		t.Fatalf("jobs=%d failed=%d, want %d and 1", js.jobs, js.failed, minJobs)
	}
	if js.e2e()["run_s"] != 0.003 {
		t.Fatalf("run_s = %v, want the median job 0.003", js.e2e()["run_s"])
	}
}
