package phaseclient

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"phasemon/internal/wire"
)

// register opens a session on c without a server: the queue tests
// drive the reader side through demux by hand.
func register(c *Client, id uint64) *Session {
	s := newSession(c, id, window)
	c.mu.Lock()
	c.addLocked(s)
	c.mu.Unlock()
	return s
}

// replies returns n replies for session id with sequence numbers
// from, from+1, ...
func replies(id uint64, from, n int) []wire.Prediction {
	ps := make([]wire.Prediction, n)
	for i := range ps {
		ps[i] = wire.Prediction{SessionID: id, Seq: uint64(from + i), Next: 1}
	}
	return ps
}

// deliver hands ps to the client's demux as reply batches, as the
// reader goroutine would.
func deliver(t *testing.T, c *Client, ps []wire.Prediction) {
	t.Helper()
	for len(ps) > 0 {
		n := min(len(ps), wire.MaxBatchPredictions)
		frame, err := wire.AppendBatchPredictions(nil, ps[:n])
		if err != nil {
			t.Error(err)
			return
		}
		if err := c.demux(wire.KindBatch, frame[wire.HeaderSize:len(frame)-wire.TrailerSize]); err != nil {
			t.Error(err)
			return
		}
		ps = ps[n:]
	}
}

// waitFor polls cond under the session's queue lock until it holds.
func waitFor(t *testing.T, s *Session, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.qmu.Lock()
		ok := cond()
		s.qmu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// recvSeqs receives n replies and checks they carry sequence numbers
// from, from+1, ...
func recvSeqs(t *testing.T, s *Session, from, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		p, err := s.Recv(context.Background())
		if err != nil {
			t.Fatalf("Recv #%d: %v", from+i, err)
		}
		if p.Seq != uint64(from+i) {
			t.Fatalf("Recv #%d: got seq %d", from+i, p.Seq)
		}
	}
}

// TestReaderBlocksAtWindow: the reader buffers window replies, then
// waits for room; one Recv lets it finish the run, in order.
func TestReaderBlocksAtWindow(t *testing.T) {
	c := New(Config{Addr: "127.0.0.1:0"})
	defer c.Close()
	s := register(c, 3)

	done := make(chan struct{})
	go func() {
		defer close(done)
		deliver(t, c, replies(s.id, 0, window+5))
	}()
	waitFor(t, s, "the reader fills the queue", func() bool { return s.qlen == window })
	select {
	case <-done:
		t.Fatal("reader finished with the queue full")
	default:
	}
	recvSeqs(t, s, 0, 1)
	// One slot frees; the reader fills it and blocks again for the rest.
	waitFor(t, s, "the reader refills the freed slot", func() bool { return s.qlen == window })
	recvSeqs(t, s, 1, window+4)
	<-done
}

// TestTeardownReleasesBlockedReader: a connection teardown while the
// reader waits for room releases it; the buffered replies stay
// readable, and the terminal error follows them.
func TestTeardownReleasesBlockedReader(t *testing.T) {
	c := New(Config{Addr: "127.0.0.1:0"})
	s := register(c, 3)

	done := make(chan struct{})
	go func() {
		defer close(done)
		deliver(t, c, replies(s.id, 0, window+100))
	}()
	waitFor(t, s, "the reader fills the queue", func() bool { return s.qlen == window })
	c.Close()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("teardown left the reader blocked")
	}
	recvSeqs(t, s, 0, window)
	if _, err := s.Recv(context.Background()); !errors.Is(err, ErrDisconnected) || !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv after the buffered replies: %v, want ErrDisconnected wrapping ErrClosed", err)
	}
}

// TestBufferedRepliesPrecedeTerminalError: replies buffered before a
// disconnect come back before the terminal error, which then repeats
// on every call — and matches ErrResumable when the session's
// snapshot landed first.
func TestBufferedRepliesPrecedeTerminalError(t *testing.T) {
	for _, resumable := range []bool{false, true} {
		c := New(Config{Addr: "127.0.0.1:0"})
		s := register(c, 3)
		deliver(t, c, replies(s.id, 0, 70))
		if resumable {
			s.storeSnapshot(&SessionSnapshot{Payload: []byte{1}})
		}
		c.mu.Lock()
		c.teardownLocked(errors.New("peer reset"))
		c.mu.Unlock()

		recvSeqs(t, s, 0, 70)
		for i := 0; i < 2; i++ {
			_, err := s.Recv(context.Background())
			if !errors.Is(err, ErrDisconnected) || errors.Is(err, ErrResumable) != resumable {
				t.Fatalf("resumable=%v: terminal error %v, want ErrDisconnected (ErrResumable %v)", resumable, err, resumable)
			}
		}
	}
}

// TestConcurrentRecvExactlyOnce: two Recv callers draining one session
// while the reader pushes runs get every reply exactly once, each in
// increasing order.
func TestConcurrentRecvExactlyOnce(t *testing.T) {
	const total = 20000
	c := New(Config{Addr: "127.0.0.1:0"})
	s := register(c, 3)

	var mu sync.Mutex
	seen := make([]int, total)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := -1
			for {
				p, err := s.Recv(context.Background())
				if err != nil {
					return
				}
				if int(p.Seq) <= last {
					t.Errorf("reply %d after %d", p.Seq, last)
				}
				last = int(p.Seq)
				mu.Lock()
				seen[p.Seq]++
				mu.Unlock()
			}
		}()
	}
	// Runs of 59 replies, three to a frame, as the server writes them.
	for from := 0; from < total; from += 3 * 59 {
		deliver(t, c, replies(s.id, from, min(3*59, total-from)))
	}
	// The replies are all queued or taken: wait for them to drain, then
	// fail the session to release both callers.
	waitFor(t, s, "the callers drain the queue", func() bool { return s.qlen == 0 })
	c.Close()
	wg.Wait()
	for seq, n := range seen {
		if n != 1 {
			t.Fatalf("reply %d received %d times", seq, n)
		}
	}
}

// TestRecvContextCanceled: a Recv waiting on an empty queue returns
// ctx.Err() when its context is canceled.
func TestRecvContextCanceled(t *testing.T) {
	c := New(Config{Addr: "127.0.0.1:0"})
	defer c.Close()
	s := register(c, 3)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.Recv(ctx)
		errc <- err
	}()
	waitFor(t, s, "Recv waits", func() bool { return s.waiters == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("Recv = %v, want context.Canceled", err)
	}
	// The session is unharmed: a later reply is still delivered.
	deliver(t, c, replies(s.id, 0, 1))
	recvSeqs(t, s, 0, 1)
}
