package phaseclient

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"phasemon/internal/wire"
)

// TestSessionScopedErrorFreesID reproduces the rolling-restart race
// where a sample sent while the server drains the session comes back
// as a session-scoped error frame *after* the Snapshot frame. The
// error must surface as ErrResumable (the snapshot is already stored)
// and — the regression this test pins — must unregister the session
// client-side, so the same id can immediately Resume on the same
// client instead of failing "already open".
func TestSessionScopedErrorFreesID(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	const id = 5
	srvErr := make(chan error, 1)
	go func() { srvErr <- scriptedDrainServer(t, ln, id) }()

	cl := New(Config{Addr: ln.Addr().String(), MaxAttempts: 2})
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	sess, _, err := cl.OpenResumable(ctx, id, "gpht_8_128", 100e6)
	if err != nil {
		t.Fatalf("OpenResumable: %v", err)
	}

	// The scripted server answers the Ack with a Snapshot frame and
	// then the late-sample error; the session must die resumable.
	if _, err := sess.Recv(ctx); err == nil {
		t.Fatal("Recv: want terminal error, got prediction")
	} else if !errors.Is(err, ErrResumable) {
		t.Fatalf("Recv error = %v, want ErrResumable", err)
	}
	snap, ok := sess.Snapshot()
	if !ok {
		t.Fatal("Snapshot: want stored snapshot after resumable failure")
	}
	if snap.SessionID != id || snap.Spec != "gpht_8_128" {
		t.Fatalf("snapshot = %+v, want session %d spec gpht_8_128", snap, id)
	}

	// Same client, same id: the failed session must already be
	// unregistered or this reports "session 5 already open".
	resumed, _, err := cl.Resume(ctx, snap)
	if err != nil {
		t.Fatalf("Resume on same client: %v", err)
	}
	if resumed == sess {
		t.Fatal("Resume returned the dead session")
	}
	if err := <-srvErr; err != nil {
		t.Fatalf("scripted server: %v", err)
	}
}

// scriptedDrainServer speaks just enough wire protocol for the test:
// Ack the resumable Hello, hand back a Snapshot, fail the session with
// a scoped unknown-session error (the draining-server race), then Ack
// the Restore that a correct client sends next. The connection stays
// open until the test ends: closing it right after the last Ack would
// race the client's delivery of that Ack against its EOF teardown.
func scriptedDrainServer(t *testing.T, ln net.Listener, id uint64) error {
	conn, err := ln.Accept()
	if err != nil {
		return err
	}
	t.Cleanup(func() { _ = conn.Close() })
	dec := wire.NewDecoder(conn)

	kind, payload, err := dec.Next()
	if err != nil {
		return err
	}
	var h wire.Hello
	if kind != wire.KindHello {
		return errors.New("want Hello first")
	}
	if err := wire.DecodeHello(payload, &h); err != nil {
		return err
	}

	var buf []byte
	buf = wire.AppendAck(buf, &wire.Ack{SessionID: id, NumPhases: 6})
	buf, err = wire.AppendSnapshot(buf, &wire.Snapshot{
		SessionID: id,
		LastSeq:   wire.NoSamples,
		Spec:      h.Spec,
		State:     []byte{0x4D, 1, 6}, // opaque to the client
	})
	if err != nil {
		return err
	}
	buf, err = wire.AppendError(buf, &wire.ErrorFrame{
		Code:      wire.CodeUnknownSession,
		SessionID: id,
		Msg:       []byte("late sample"),
	})
	if err != nil {
		return err
	}
	if _, err := conn.Write(buf); err != nil {
		return err
	}

	kind, payload, err = dec.Next()
	if err != nil {
		return err
	}
	if kind != wire.KindRestore {
		return errors.New("want Restore after resumable failure")
	}
	var r wire.Restore
	if err := wire.DecodeRestore(payload, &r); err != nil {
		return err
	}
	if r.SessionID != id {
		return errors.New("Restore carries wrong session id")
	}
	_, err = conn.Write(wire.AppendAck(nil, &wire.Ack{SessionID: id, NumPhases: 6}))
	return err
}
