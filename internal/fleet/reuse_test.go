package fleet

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"phasemon/internal/governor"
	"phasemon/internal/kernelsim"
	"phasemon/internal/workload"
)

// TestReduceReusesLogs: a sweep keeps at most one kernel log per
// worker, so a Reduce over many equal-length specs sees at most
// Workers distinct backing arrays, and what each reduction reads of
// its log still equals RunAll's copy.
func TestReduceReusesLogs(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		specs := seededSpecs(4*workers+3, 48)
		full, err := New(Config{Workers: 1}).RunAll(context.Background(), specs)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		arrays := map[*kernelsim.Entry]bool{}
		got, err := Reduce(context.Background(), New(Config{Workers: workers}), specs, func(r Result) string {
			if r.Res == nil || len(r.Res.Log) == 0 {
				return "no log"
			}
			mu.Lock()
			arrays[&r.Res.Log[0]] = true
			mu.Unlock()
			return fmt.Sprint(r.Res.Log)
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(arrays) > workers {
			t.Errorf("workers=%d: %d specs used %d kernel-log arrays, want at most %d",
				workers, len(specs), len(arrays), workers)
		}
		for i, r := range full {
			if got[i] != fmt.Sprint(r.Res.Log) {
				t.Errorf("workers=%d spec %d: log read on reused storage differs from RunAll's", workers, i)
			}
		}
	}
}

// TestRunAllLogsDoNotAlias: RunAll copies every log out of the
// engine's storage, so no two results share a backing array.
func TestRunAllLogsDoNotAlias(t *testing.T) {
	specs := seededSpecs(12, 64)
	res, err := New(Config{Workers: 2}).RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[*kernelsim.Entry]int{}
	for i, r := range res {
		log := r.Res.Log
		if len(log) != 64 {
			t.Fatalf("spec %d: log has %d entries, want 64", i, len(log))
		}
		if j, ok := seen[&log[0]]; ok {
			t.Errorf("specs %d and %d share a kernel-log array", j, i)
		}
		seen[&log[0]] = i
	}
}

// TestReusedLogKeepsBound: storage larger than a run's bound, holding a
// previous run's entries, changes nothing: the engine re-slices it to
// the run's length, and a 64-entry bound still wraps at 64 (keeping
// the newest entries).
func TestReusedLogKeepsBound(t *testing.T) {
	dirty := func() []kernelsim.Entry {
		buf := make([]kernelsim.Entry, 1024)
		for i := range buf {
			buf[i] = kernelsim.Entry{Index: -i, Uops: 7, MemPerUop: 0.5, Actual: 3, Predicted: 4, Setting: 2}
		}
		return buf
	}

	e := New(Config{})
	sp := e.resolve(Spec{Workload: "gzip_graphic", Policy: "gpht_8_128", Intervals: 64})
	log := dirty()
	res, err := e.runSpec(context.Background(), sp, &log)
	if err != nil {
		t.Fatal(err)
	}
	if cap(res.Log) != 64 || !reflect.DeepEqual(res, referenceRun(t, sp)) {
		t.Errorf("run on a reused 1024-entry buffer differs from a fresh run (log cap %d)", cap(res.Log))
	}

	prof, err := workload.ByName("gzip_graphic")
	if err != nil {
		t.Fatal(err)
	}
	gen := prof.Generator(workload.Params{Seed: 1, Intervals: 200})
	fresh, err := governor.Run(gen, governor.Proactive(8, 128), governor.Config{Log: make([]kernelsim.Entry, 0, 64)})
	if err != nil {
		t.Fatal(err)
	}
	reused, err := governor.Run(gen, governor.Proactive(8, 128), governor.Config{Log: dirty()[:0:64]})
	if err != nil {
		t.Fatal(err)
	}
	if len(reused.Log) != 64 || reused.Log[0].Index != 136 || reused.Log[63].Index != 199 {
		t.Errorf("64-entry bound on a larger buffer kept %d entries from index %d, want 64 from 136",
			len(reused.Log), reused.Log[0].Index)
	}
	if !reflect.DeepEqual(reused, fresh) {
		t.Error("wrapped run on a reused buffer differs from one on fresh storage")
	}
}
