package phased

import (
	"context"
	"errors"
	"testing"
	"time"

	"phasemon/internal/phaseclient"
	"phasemon/internal/wire"
)

// TestKillAndResumeMigration is the migration tentpole's end-to-end
// proof: stream half a workload to a server, drain (kill) the server,
// resume from the client-held snapshot on a fresh server with a
// different worker layout, stream the other half — and the stitched
// prediction stream must be bit-identical to an uninterrupted local
// governor run over the same counters. Run under -race this also
// exercises the snapshot path's concurrency.
func TestKillAndResumeMigration(t *testing.T) {
	for _, spec := range []string{"gpht_8_128", "fixwindow_128_majority"} {
		t.Run(spec, func(t *testing.T) {
			want := localRun(t, spec, "mcf_inp", 600)
			half := len(want) / 2
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()

			// Server A: stream and verify the first half.
			srvA, addrA, _ := startServer(t, Config{Workers: 5, QueueDepth: 1024})
			clA := phaseclient.New(phaseclient.Config{Addr: addrA})
			defer clA.Close()
			sess, numPhases, err := clA.OpenResumable(ctx, 42, spec, 100e6)
			if err != nil {
				t.Fatalf("OpenResumable: %v", err)
			}
			if numPhases != 6 {
				t.Fatalf("Ack.NumPhases = %d, want 6", numPhases)
			}
			if _, ok := sess.Snapshot(); ok {
				t.Fatal("snapshot available before any drain")
			}
			for i := 0; i < half; i++ {
				e := want[i]
				if err := sess.Send(wire.Sample{Seq: uint64(i), Uops: e.Uops, MemTx: e.MemTx, Cycles: e.Cycles}); err != nil {
					t.Fatalf("Send #%d: %v", i, err)
				}
			}
			for i := 0; i < half; i++ {
				p, err := sess.Recv(ctx)
				if err != nil {
					t.Fatalf("Recv #%d: %v", i, err)
				}
				if p.Seq != uint64(i) || p.Actual != uint8(want[i].Actual) || p.Next != uint8(want[i].Predicted) {
					t.Fatalf("pre-drain prediction #%d diverged: got seq=%d actual=%d next=%d, want seq=%d actual=%d next=%d",
						i, p.Seq, p.Actual, p.Next, i, want[i].Actual, want[i].Predicted)
				}
			}

			// Kill server A: graceful shutdown drains the session, which
			// emits the Snapshot frame, then the Drain, then closes.
			shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
			if err := srvA.Shutdown(shutCtx); err != nil {
				shutCancel()
				t.Fatalf("Shutdown: %v", err)
			}
			shutCancel()
			select {
			case d := <-sess.Drained():
				if d.LastSeq != uint64(half-1) {
					t.Fatalf("server Drain.LastSeq = %d, want %d", d.LastSeq, half-1)
				}
			case <-ctx.Done():
				t.Fatal("no server-initiated Drain after shutdown")
			}
			snap, ok := sess.Snapshot()
			if !ok {
				t.Fatal("no snapshot after server drain of a resumable session")
			}
			if sn := decodeSnap(t, snap); sn.SessionID != 42 || sn.LastSeq != uint64(half-1) ||
				sn.Processed != uint64(half) || string(sn.Spec) != spec ||
				snap.GranularityUops != 100e6 {
				t.Fatalf("snapshot metadata = %+v, granularity %d", sn, snap.GranularityUops)
			}
			// The session's terminal error advertises resumability. The
			// dead connection may take a moment to surface.
			_, rerr := sess.Recv(ctx)
			if rerr == nil || !errors.Is(rerr, phaseclient.ErrResumable) || !errors.Is(rerr, phaseclient.ErrDisconnected) {
				t.Fatalf("post-drain Recv error = %v, want ErrResumable and ErrDisconnected", rerr)
			}

			// Server B: different worker count, so the session lands on a
			// different shard layout — migration must not care.
			_, addrB, hubB := startServer(t, Config{Workers: 2, QueueDepth: 1024})
			clB := phaseclient.New(phaseclient.Config{Addr: addrB})
			defer clB.Close()
			resumed, numPhases, err := clB.Resume(ctx, snap)
			if err != nil {
				t.Fatalf("Resume: %v", err)
			}
			if numPhases != 6 {
				t.Fatalf("resume Ack.NumPhases = %d, want 6", numPhases)
			}
			for i := half; i < len(want); i++ {
				e := want[i]
				if err := resumed.Send(wire.Sample{Seq: uint64(i), Uops: e.Uops, MemTx: e.MemTx, Cycles: e.Cycles}); err != nil {
					t.Fatalf("Send #%d: %v", i, err)
				}
			}
			for i := half; i < len(want); i++ {
				p, err := resumed.Recv(ctx)
				if err != nil {
					t.Fatalf("post-resume Recv #%d: %v", i, err)
				}
				if p.Seq != uint64(i) {
					t.Fatalf("post-resume prediction #%d out of order: seq %d", i, p.Seq)
				}
				if p.Actual != uint8(want[i].Actual) || p.Next != uint8(want[i].Predicted) {
					t.Fatalf("post-resume prediction #%d diverged: got actual=%d next=%d, uninterrupted run had actual=%d predicted=%d",
						i, p.Actual, p.Next, want[i].Actual, want[i].Predicted)
				}
			}
			d, err := resumed.Drain(ctx)
			if err != nil {
				t.Fatalf("Drain: %v", err)
			}
			if d.LastSeq != uint64(len(want)-1) {
				t.Fatalf("Drain.LastSeq = %d, want %d (cumulative across the migration)", d.LastSeq, len(want)-1)
			}
			// The resumed session is itself resumable: a client-initiated
			// drain also yields a snapshot, carrying the full stream's
			// accounting.
			snap2, ok := resumed.Snapshot()
			if !ok {
				t.Fatal("resumed session drained without a snapshot")
			}
			if sn := decodeSnap(t, snap2); sn.Processed != uint64(len(want)) || sn.LastSeq != uint64(len(want)-1) {
				t.Fatalf("second snapshot accounting = %+v, want processed=%d lastSeq=%d",
					sn, len(want), len(want)-1)
			}
			if n := hubB.PhasedProtocolErrors.Value(); n != 0 {
				t.Fatalf("server B protocol errors = %d, want 0", n)
			}
		})
	}
}

// decodeSnap reads a client-held snapshot's fields.
func decodeSnap(t *testing.T, snap phaseclient.SessionSnapshot) wire.Snapshot {
	t.Helper()
	sn, err := snap.Decode()
	if err != nil {
		t.Fatalf("snapshot does not decode: %v", err)
	}
	return sn
}

// TestResumeRejectsCorruptState: a Restore whose state blob fails the
// predictor's own validation answers CodeBadSnapshot and leaves the
// connection usable — a client with a bad snapshot can fall back to a
// fresh Open without redialing.
func TestResumeRejectsCorruptState(t *testing.T) {
	const spec = "gpht_8_128"
	want := localRun(t, spec, "mcf_inp", 100)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	srvA, addrA, _ := startServer(t, Config{QueueDepth: 256})
	clA := phaseclient.New(phaseclient.Config{Addr: addrA})
	defer clA.Close()
	sess, _, err := clA.OpenResumable(ctx, 7, spec, 100e6)
	if err != nil {
		t.Fatalf("OpenResumable: %v", err)
	}
	for i, e := range want {
		if err := sess.Send(wire.Sample{Seq: uint64(i), Uops: e.Uops, MemTx: e.MemTx, Cycles: e.Cycles}); err != nil {
			t.Fatalf("Send #%d: %v", i, err)
		}
	}
	for range want {
		if _, err := sess.Recv(ctx); err != nil {
			t.Fatalf("Recv: %v", err)
		}
	}
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shutCancel()
	if err := srvA.Shutdown(shutCtx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	<-sess.Drained()
	snap, ok := sess.Snapshot()
	if !ok {
		t.Fatal("no snapshot after drain")
	}

	_, addrB, _ := startServer(t, Config{})
	clB := phaseclient.New(phaseclient.Config{Addr: addrB})
	defer clB.Close()

	// Corrupt the monitor state semantically and reseal its inner CRC,
	// so only the server's predictor validation can catch it.
	sn := decodeSnap(t, snap)
	sn.State = append([]byte(nil), sn.State...)
	sn.State[0] ^= 0xFF // destroy the envelope tag
	frame, err := wire.AppendSnapshot(nil, &sn)
	if err != nil {
		t.Fatal(err)
	}
	bad := phaseclient.SessionSnapshot{GranularityUops: snap.GranularityUops,
		Payload: frame[wire.HeaderSize : len(frame)-wire.TrailerSize]}
	if _, _, err := clB.Resume(ctx, bad); err == nil {
		t.Fatal("Resume accepted corrupt state")
	} else {
		var serr *phaseclient.ServerError
		if !errors.As(err, &serr) || serr.Code != wire.CodeBadSnapshot {
			t.Fatalf("Resume error = %v, want ServerError with CodeBadSnapshot", err)
		}
	}
	// The connection survived the rejection: the genuine snapshot
	// resumes on the same client.
	resumed, _, err := clB.Resume(ctx, snap)
	if err != nil {
		t.Fatalf("Resume after rejection: %v", err)
	}
	if _, err := resumed.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// TestPlainSessionDrainsStateless: a session opened without
// FlagSnapshot gets no Snapshot frame on drain and its terminal error
// does not claim resumability — the legacy contract is unchanged.
func TestPlainSessionDrainsStateless(t *testing.T) {
	const spec = "fixwindow_128_majority"
	want := localRun(t, spec, "mcf_inp", 50)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	srv, addr, _ := startServer(t, Config{QueueDepth: 256})
	cl := phaseclient.New(phaseclient.Config{Addr: addr})
	defer cl.Close()
	sess, _, err := cl.Open(ctx, 9, spec, 100e6)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i, e := range want {
		if err := sess.Send(wire.Sample{Seq: uint64(i), Uops: e.Uops, MemTx: e.MemTx, Cycles: e.Cycles}); err != nil {
			t.Fatalf("Send #%d: %v", i, err)
		}
	}
	for range want {
		if _, err := sess.Recv(ctx); err != nil {
			t.Fatalf("Recv: %v", err)
		}
	}
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shutCancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	<-sess.Drained()
	if _, ok := sess.Snapshot(); ok {
		t.Fatal("stateless session received a snapshot")
	}
	_, rerr := sess.Recv(ctx)
	if rerr == nil || errors.Is(rerr, phaseclient.ErrResumable) {
		t.Fatalf("stateless session's terminal error = %v, must not match ErrResumable", rerr)
	}
	if !errors.Is(rerr, phaseclient.ErrDisconnected) {
		t.Fatalf("terminal error = %v, want ErrDisconnected", rerr)
	}
}

// TestOversizeSnapshotFailsLoudly: a resumable session whose monitor
// state is too large for one frame (gpht_8_4096 is ~72 KiB) cannot be
// handed back on drain. The server must say so with a session-scoped
// CodeBadSnapshot error before the Drain, so the client fails the
// session loudly instead of treating it as a stateless one.
func TestOversizeSnapshotFailsLoudly(t *testing.T) {
	const spec = "gpht_8_4096"
	want := localRun(t, spec, "mcf_inp", 10)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	srv, addr, _ := startServer(t, Config{QueueDepth: 256})
	cl := phaseclient.New(phaseclient.Config{Addr: addr})
	defer cl.Close()
	sess, _, err := cl.OpenResumable(ctx, 11, spec, 100e6)
	if err != nil {
		t.Fatalf("OpenResumable: %v", err)
	}
	for i, e := range want {
		if err := sess.Send(wire.Sample{Seq: uint64(i), Uops: e.Uops, MemTx: e.MemTx, Cycles: e.Cycles}); err != nil {
			t.Fatalf("Send #%d: %v", i, err)
		}
	}
	for range want {
		if _, err := sess.Recv(ctx); err != nil {
			t.Fatalf("Recv: %v", err)
		}
	}
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shutCancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	_, rerr := sess.Recv(ctx)
	var serr *phaseclient.ServerError
	if !errors.As(rerr, &serr) || serr.Code != wire.CodeBadSnapshot || serr.SessionID != 11 {
		t.Fatalf("terminal error = %v, want a session-scoped ServerError with CodeBadSnapshot", rerr)
	}
	if errors.Is(rerr, phaseclient.ErrResumable) {
		t.Fatalf("terminal error = %v claims resumability", rerr)
	}
	if _, ok := sess.Snapshot(); ok {
		t.Fatal("oversize session produced a snapshot")
	}
}
