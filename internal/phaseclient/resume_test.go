package phaseclient

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
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
	if sn, err := snap.Decode(); err != nil || sn.SessionID != id || string(sn.Spec) != "gpht_8_128" {
		t.Fatalf("snapshot = %+v, %v, want session %d spec gpht_8_128", sn, err, id)
	}
	if snap.GranularityUops != 100e6 {
		t.Fatalf("snapshot granularity = %d, want 100e6", snap.GranularityUops)
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
// the Restore that a correct client sends next — after checking that
// it carries the Hello's granularity and then the Snapshot payload the
// client received, byte for byte. The connection stays
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

	snap, err := wire.AppendSnapshot(nil, &wire.Snapshot{
		SessionID: id,
		LastSeq:   wire.NoSamples,
		Spec:      h.Spec,
		State:     []byte{0x4D, 1, 6}, // opaque to the client
	})
	if err != nil {
		return err
	}
	sent := snap[wire.HeaderSize : len(snap)-wire.TrailerSize]
	buf := wire.AppendAck(nil, &wire.Ack{SessionID: id, NumPhases: 6})
	buf = append(buf, snap...)
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
	if len(payload) < 8 || binary.BigEndian.Uint64(payload) != h.GranularityUops {
		return errors.New("Restore does not lead with the Hello's granularity")
	}
	if !bytes.Equal(payload[8:], sent) {
		return fmt.Errorf("Restore payload[8:] = %x, want the Snapshot payload %x", payload[8:], sent)
	}
	_, err = conn.Write(wire.AppendAck(nil, &wire.Ack{SessionID: id, NumPhases: 6}))
	return err
}

// TestStaleUnknownSessionSkipsResume reproduces the rolling-restart
// race where samples a drained session buffered are flushed ahead of
// its Restore (a control frame flushes pending samples first). The
// server no longer knows the id, so it answers them unknown-session
// just before it acks the Restore. That error answers the old
// session's samples, not the new session waiting for its Ack, so the
// Resume must succeed.
func TestStaleUnknownSessionSkipsResume(t *testing.T) {
	const id = 9
	cliConn, srvConn := net.Pipe()
	defer srvConn.Close()
	erred := make(chan struct{})
	srvErr := make(chan error, 1)
	go func() { srvErr <- staleSampleServer(srvConn, id, erred) }()

	// A large batch and a long flush interval keep the samples buffered
	// until the Restore flushes them.
	c := New(Config{Addr: "pipe", BatchSize: 64, FlushInterval: time.Hour})
	defer c.Close()
	c.mu.Lock()
	c.conn = cliConn
	c.mu.Unlock()
	go c.readLoop(cliConn)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sess, _, err := c.OpenResumable(ctx, id, "lastvalue", 100e6)
	if err != nil {
		t.Fatalf("OpenResumable: %v", err)
	}
	for seq := uint64(0); seq < 2; seq++ {
		if err := sess.Send(wire.Sample{Seq: seq, Uops: 100e6}); err != nil {
			t.Fatalf("Send %d: %v", seq, err)
		}
	}
	close(erred) // let the server fail the drained session
	if _, err := sess.Recv(ctx); !errors.Is(err, ErrResumable) {
		t.Fatalf("Recv error = %v, want ErrResumable", err)
	}
	snap, ok := sess.Snapshot()
	if !ok {
		t.Fatal("no snapshot after resumable failure")
	}
	if _, _, err := c.Resume(ctx, snap); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if err := <-srvErr; err != nil {
		t.Fatalf("scripted server: %v", err)
	}
}

// staleSampleServer acks the resumable Hello and hands back a
// Snapshot. Once erred closes it fails the session with an
// unknown-session error, as a draining server answers a late sample.
// It then expects the buffered samples, answers them unknown-session,
// and acks the Restore that follows them.
func staleSampleServer(conn net.Conn, id uint64, erred <-chan struct{}) error {
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
	buf := wire.AppendAck(nil, &wire.Ack{SessionID: id, NumPhases: 6, Flags: wire.FlagSnapshot})
	if buf, err = wire.AppendSnapshot(buf, &wire.Snapshot{SessionID: id, LastSeq: wire.NoSamples,
		Spec: h.Spec, State: []byte{0x4D, 1, 6}}); err != nil {
		return err
	}
	if _, err := conn.Write(buf); err != nil {
		return err
	}
	unknown, err := wire.AppendError(nil, &wire.ErrorFrame{Code: wire.CodeUnknownSession, SessionID: id,
		Msg: []byte("no such session on this connection")})
	if err != nil {
		return err
	}
	<-erred
	if _, err := conn.Write(unknown); err != nil {
		return err
	}
	if kind, _, err = dec.Next(); err != nil {
		return err
	}
	if kind != wire.KindBatch {
		return fmt.Errorf("got %v, want the buffered samples ahead of the Restore", kind)
	}
	if _, err := conn.Write(unknown); err != nil {
		return err
	}
	if kind, _, err = dec.Next(); err != nil {
		return err
	}
	if kind != wire.KindRestore {
		return fmt.Errorf("got %v, want Restore", kind)
	}
	_, err = conn.Write(wire.AppendAck(nil, &wire.Ack{SessionID: id, NumPhases: 6}))
	return err
}

// TestCorruptSnapshotFailsLoudly: a Snapshot frame whose inner state
// CRC fails — one state byte flipped, the frame trailer resealed so
// only the inner check can tell — must tear the connection down like
// any undecodable frame, not be dropped so the session merely looks
// non-resumable.
func TestCorruptSnapshotFailsLoudly(t *testing.T) {
	frame, err := wire.AppendSnapshot(nil, &wire.Snapshot{SessionID: 3, LastSeq: 9, Processed: 10,
		Spec: []byte("gpht_8_128"), State: []byte{0x4D, 1, 6, 0, 0, 7, 7}})
	if err != nil {
		t.Fatal(err)
	}
	body := frame[:len(frame)-wire.TrailerSize]
	body[len(body)-1] ^= 0x01 // the last state byte
	binary.BigEndian.PutUint32(frame[len(body):], crc32.ChecksumIEEE(body))

	// A fake server on the far end of a pipe: take the Hello, Ack it,
	// then send the damaged Snapshot.
	cliConn, srvConn := net.Pipe()
	defer srvConn.Close()
	go func() {
		if _, _, err := wire.NewDecoder(srvConn).Next(); err != nil {
			return
		}
		ack := wire.AppendAck(nil, &wire.Ack{SessionID: 3, NumPhases: 6, Flags: wire.FlagSnapshot})
		_, _ = srvConn.Write(append(ack, frame...))
	}()
	c := New(Config{Addr: "pipe"})
	defer c.Close()
	c.mu.Lock()
	c.conn = cliConn
	c.mu.Unlock()
	go c.readLoop(cliConn)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sess, _, err := c.OpenResumable(ctx, 3, "gpht_8_128", 100e6)
	if err != nil {
		t.Fatalf("OpenResumable: %v", err)
	}
	_, rerr := sess.Recv(ctx)
	if !errors.Is(rerr, wire.ErrBadFrame) || !errors.Is(rerr, ErrDisconnected) {
		t.Fatalf("terminal error = %v, want ErrDisconnected wrapping wire.ErrBadFrame", rerr)
	}
	if errors.Is(rerr, ErrResumable) {
		t.Fatalf("terminal error = %v claims resumability", rerr)
	}
	if _, ok := sess.Snapshot(); ok {
		t.Fatal("corrupt snapshot was stored")
	}
}
