package phaseclient

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"phasemon/internal/wire"
)

// replayReader hands the same encoded frames back forever, so the
// decoder can run an unbounded steady state without a live socket.
type replayReader struct {
	frames []byte
	off    int
}

func (r *replayReader) Read(p []byte) (int, error) {
	if r.off == len(r.frames) {
		r.off = 0
	}
	n := copy(p, r.frames[r.off:])
	r.off += n
	return n, nil
}

// TestDemuxZeroAlloc proves the client's frame demux — stream decode,
// payload parse, one lookup and one queue push per run of a session's
// replies — and Recv allocate nothing in steady state, for both the
// prediction Batch path and the per-bucket Rollup path. The batch here
// is 64 replies for three sessions in interleaved runs, so a session
// recurs within one frame. The decoder's frame buffer, the reply
// queues and the rollup channel are the only storage, and all are
// reused across frames.
func TestDemuxZeroAlloc(t *testing.T) {
	c := New(Config{Addr: "127.0.0.1:0"})
	sess := []*Session{register(c, 7), register(c, 8), register(c, 9)}
	rollups := make(chan wire.Rollup, 1)
	c.mu.Lock()
	c.rollupSess, c.rollupCh = sess[0], rollups
	c.mu.Unlock()

	// Runs of 10, 20, 5, 15, 4 and 10 replies: sessions 7, 8, 9, 7, 8, 9.
	var batch []wire.Prediction
	var per [3]int
	for r, n := range []int{10, 20, 5, 15, 4, 10} {
		for i := 0; i < n; i++ {
			batch = append(batch, wire.Prediction{SessionID: sess[r%3].id, Seq: uint64(len(batch)), Next: 3})
		}
		per[r%3] += n
	}
	if len(batch) != 64 {
		t.Fatalf("batch holds %d replies, want 64", len(batch))
	}
	r := wire.Rollup{NodeID: 42, Shard: 1, BucketStart: 1e9, BucketLenNs: 1e9}
	frames, err := wire.AppendBatchPredictions(nil, batch)
	if err != nil {
		t.Fatal(err)
	}
	frames = wire.AppendRollup(frames, &r)
	dec := wire.NewDecoder(&replayReader{frames: frames})

	ctx := context.Background()
	step := func() {
		for i := 0; i < 2; i++ {
			kind, payload, err := dec.Next()
			if err != nil {
				t.Fatal(err)
			}
			if err := c.demux(kind, payload); err != nil {
				t.Fatalf("demux treated %v as fatal: %v", kind, err)
			}
		}
		for k, s := range sess {
			for i := 0; i < per[k]; i++ {
				if p, err := s.Recv(ctx); err != nil || p.SessionID != s.id {
					t.Fatalf("session %d Recv = %+v, %v", s.id, p, err)
				}
			}
		}
		<-rollups
	}
	// Warm the decoder's reusable frame buffer (rollups are larger than
	// its initial capacity) before measuring.
	step()

	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Errorf("demux allocs/op = %v, want 0", n)
	}
}

// discardConn is a net.Conn that swallows writes: Send's flush path
// runs for real with no peer.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error)        { return len(p), nil }
func (discardConn) SetWriteDeadline(t time.Time) error { return nil }
func (discardConn) Close() error                       { return nil }

// TestSendZeroAlloc is Session.Send's steady-state allocation witness:
// buffering a sample, arming the flush timer, and writing the batch
// must not allocate, whether every Send flushes (BatchSize 1) or one
// in 64 does.
func TestSendZeroAlloc(t *testing.T) {
	for _, batch := range []int{1, 64} {
		t.Run(fmt.Sprintf("batch%d", batch), func(t *testing.T) {
			// The hour-long interval keeps the timer armed but silent, so
			// its callback never runs inside AllocsPerRun's accounting.
			c := New(Config{Addr: "127.0.0.1:0", BatchSize: batch, FlushInterval: time.Hour})
			defer c.Close()
			s := &Session{c: c, id: 7, done: make(chan struct{})}
			c.mu.Lock()
			c.conn = discardConn{}
			c.addLocked(s)
			c.mu.Unlock()

			smp := wire.Sample{Uops: 1e8, MemTx: 42, Cycles: 9e7}
			send := func() {
				for i := 0; i < 64; i++ {
					smp.Seq++
					if err := s.Send(smp); err != nil {
						t.Fatal(err)
					}
				}
			}
			send() // warm the pending slice and encode buffer
			if n := testing.AllocsPerRun(200, send); n != 0 {
				t.Errorf("Send allocs per 64 samples = %v, want 0", n)
			}
		})
	}
}
