package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
)

func TestRoundTripAllKinds(t *testing.T) {
	var buf []byte
	hello := Hello{SessionID: 7, GranularityUops: 100_000_000, Spec: []byte("gpht_8_128")}
	ack := Ack{SessionID: 7, NumPhases: 6, Flags: FlagSnapshot | FlagRollup}
	sample := Sample{SessionID: 7, Seq: 41, Uops: 100_000_000, MemTx: 123456, Cycles: 98765432, WallNs: 7_000_111}
	pred := Prediction{SessionID: 7, Seq: 41, Actual: 3, Next: 5, Class: 5, Setting: 4, Dropped: 2}
	drain := Drain{SessionID: 7, LastSeq: 41}
	errf := ErrorFrame{Code: CodeBadSpec, SessionID: 7, Msg: []byte("no such predictor")}
	rollup := testRollup()
	snap := Snapshot{SessionID: 7, LastSeq: 41, Processed: 40, Dropped: 2,
		Spec: []byte("gpht_8_128"), State: []byte{0x4D, 1, 6, 0, 0}}

	batch := []Sample{
		{SessionID: 7, Seq: 42, Uops: 100_000_000, MemTx: 654321, Cycles: 87654321, WallNs: 7_000_222},
		{SessionID: 7, Seq: 43, Uops: 100_000_000, MemTx: 111, Cycles: 76543210, WallNs: 7_000_333},
	}

	var err error
	if buf, err = AppendHello(buf, &hello); err != nil {
		t.Fatal(err)
	}
	buf = AppendAck(buf, &ack)
	buf = AppendSample(buf, &sample)
	buf = AppendPrediction(buf, &pred)
	buf = AppendDrain(buf, &drain)
	if buf, err = AppendError(buf, &errf); err != nil {
		t.Fatal(err)
	}
	buf = AppendRollup(buf, rollup)
	if buf, err = AppendSnapshot(buf, &snap); err != nil {
		t.Fatal(err)
	}
	if buf, err = AppendRestore(buf, 100_000_000, snapshotPayload(t, &snap)); err != nil {
		t.Fatal(err)
	}
	if buf, err = AppendBatchSamples(buf, batch); err != nil {
		t.Fatal(err)
	}

	d := NewDecoder(bytes.NewReader(buf))
	wantKinds := []FrameKind{KindHello, KindAck, KindSample, KindPrediction, KindDrain, KindError, KindRollup, KindSnapshot, KindRestore, KindBatch}
	for i, want := range wantKinds {
		kind, payload, err := d.Next()
		if err != nil {
			t.Fatalf("frame %d: Next: %v", i, err)
		}
		if kind != want {
			t.Fatalf("frame %d: kind = %v, want %v", i, kind, want)
		}
		switch kind {
		case KindHello:
			var h Hello
			if err := DecodeHello(payload, &h); err != nil {
				t.Fatal(err)
			}
			if h.SessionID != hello.SessionID || h.GranularityUops != hello.GranularityUops || string(h.Spec) != string(hello.Spec) {
				t.Errorf("hello round trip = %+v, want %+v", h, hello)
			}
		case KindAck:
			var a Ack
			if err := DecodeAck(payload, &a); err != nil {
				t.Fatal(err)
			}
			if a != ack {
				t.Errorf("ack round trip = %+v, want %+v", a, ack)
			}
		case KindSample:
			var s Sample
			if err := DecodeSample(payload, &s); err != nil {
				t.Fatal(err)
			}
			if s != sample {
				t.Errorf("sample round trip = %+v, want %+v", s, sample)
			}
		case KindPrediction:
			var p Prediction
			if err := DecodePrediction(payload, &p); err != nil {
				t.Fatal(err)
			}
			if p != pred {
				t.Errorf("prediction round trip = %+v, want %+v", p, pred)
			}
		case KindDrain:
			var dr Drain
			if err := DecodeDrain(payload, &dr); err != nil {
				t.Fatal(err)
			}
			if dr != drain {
				t.Errorf("drain round trip = %+v, want %+v", dr, drain)
			}
		case KindError:
			var e ErrorFrame
			if err := DecodeError(payload, &e); err != nil {
				t.Fatal(err)
			}
			if e.Code != errf.Code || e.SessionID != errf.SessionID || string(e.Msg) != string(errf.Msg) {
				t.Errorf("error round trip = %+v, want %+v", e, errf)
			}
		case KindRollup:
			var r Rollup
			if err := DecodeRollup(payload, &r); err != nil {
				t.Fatal(err)
			}
			if r != *rollup {
				t.Errorf("rollup round trip = %+v, want %+v", r, *rollup)
			}
		case KindSnapshot:
			var s Snapshot
			if err := DecodeSnapshot(payload, &s); err != nil {
				t.Fatal(err)
			}
			if s.SessionID != snap.SessionID || s.LastSeq != snap.LastSeq ||
				s.Processed != snap.Processed || s.Dropped != snap.Dropped ||
				string(s.Spec) != string(snap.Spec) || !bytes.Equal(s.State, snap.State) {
				t.Errorf("snapshot round trip = %+v, want %+v", s, snap)
			}
		case KindRestore:
			var s Snapshot
			g, err := DecodeRestore(payload, &s)
			if err != nil {
				t.Fatal(err)
			}
			if g != 100_000_000 || s.SessionID != snap.SessionID || s.LastSeq != snap.LastSeq ||
				s.Processed != snap.Processed || s.Dropped != snap.Dropped ||
				string(s.Spec) != string(snap.Spec) || !bytes.Equal(s.State, snap.State) {
				t.Errorf("restore round trip = %d, %+v, want %+v", g, s, snap)
			}
		case KindBatch:
			elem, n, recs, err := DecodeBatch(payload)
			if err != nil {
				t.Fatal(err)
			}
			if elem != KindSample || n != len(batch) {
				t.Fatalf("batch envelope = %v × %d, want %v × %d", elem, n, KindSample, len(batch))
			}
			for j := range batch {
				var s Sample
				if err := DecodeSample(recs[j*SampleRecordSize:(j+1)*SampleRecordSize], &s); err != nil {
					t.Fatal(err)
				}
				if s != batch[j] {
					t.Errorf("batch record %d round trip = %+v, want %+v", j, s, batch[j])
				}
			}
		case KindInvalid:
			t.Fatalf("decoder returned KindInvalid without error")
		default:
			t.Fatalf("decoder returned unknown kind %v", kind)
		}
	}
	if _, _, err := d.Next(); err != io.EOF {
		t.Fatalf("after last frame: err = %v, want io.EOF", err)
	}
}

// testRollup builds a Rollup with every field populated by a distinct
// deterministic value, so round-trip comparisons catch swapped or
// skipped fields.
func testRollup() *Rollup {
	r := &Rollup{
		NodeID:      0xDEADBEEF00000001,
		Shard:       3,
		BucketStart: 1_700_000_000_000_000_000,
		BucketLenNs: 1_000_000_000,
		Starts:      17,
		Shed:        5,
		LatSumNs:    987_654_321,
	}
	for i := range r.Samples {
		r.Samples[i] = uint64(1000 + i)
		r.Hits[i] = uint64(500 + i)
		r.Misses[i] = uint64(100 + i)
	}
	for i := range r.LatCounts {
		r.LatCounts[i] = uint64(10 + i)
	}
	for i := range r.Top {
		r.Top[i] = RollupTop{SessionID: uint64(900 - i), Samples: uint64(80 - i)}
	}
	return r
}

// TestRollupCorruption exercises the Rollup frame against the same
// corruption classes the generic decoder test covers, plus
// payload-length lies specific to its fixed layout.
func TestRollupCorruption(t *testing.T) {
	valid := AppendRollup(nil, testRollup())

	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"flipped payload bit", func(b []byte) []byte { b[HeaderSize+60] ^= 0x01; return b }, ErrBadCRC},
		{"flipped crc bit", func(b []byte) []byte { b[len(b)-2] ^= 0x80; return b }, ErrBadCRC},
		{"truncated mid-payload", func(b []byte) []byte { return b[:HeaderSize+rollupSize/2] }, ErrBadFrame},
		{"truncated trailer", func(b []byte) []byte { return b[:len(b)-1] }, ErrBadFrame},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), valid...))
			_, _, err := NewDecoder(bytes.NewReader(b)).Next()
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("err = %v does not wrap ErrBadFrame", err)
			}
		})
	}

	var r Rollup
	if err := DecodeRollup(make([]byte, rollupSize-1), &r); !errors.Is(err, ErrShort) {
		t.Errorf("short rollup: err = %v, want ErrShort", err)
	}
	if err := DecodeRollup(make([]byte, rollupSize+1), &r); !errors.Is(err, ErrShort) {
		t.Errorf("long rollup: err = %v, want ErrShort", err)
	}
}

// testSnapshot builds a Snapshot with a realistically sized state blob.
func testSnapshot() *Snapshot {
	state := make([]byte, 2357) // gpht_8_128 monitor envelope size class
	for i := range state {
		state[i] = byte(i * 31)
	}
	return &Snapshot{SessionID: 9, LastSeq: 299, Processed: 300, Dropped: 1,
		Spec: []byte("gpht_8_128"), State: state}
}

// snapshotPayload encodes s and returns its Snapshot frame payload.
func snapshotPayload(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	b, err := AppendSnapshot(nil, s)
	if err != nil {
		t.Fatal(err)
	}
	return b[HeaderSize : len(b)-TrailerSize]
}

// TestRestoreEmbedsSnapshot pins the one-codec layout: a Restore
// payload is the 8-byte granularity followed by the Snapshot payload
// for the same value, byte for byte.
func TestRestoreEmbedsSnapshot(t *testing.T) {
	snap := testSnapshot()
	want := snapshotPayload(t, snap)
	buf, err := AppendRestore(nil, 100_000_000, want)
	if err != nil {
		t.Fatal(err)
	}
	kind, payload, err := NewDecoder(bytes.NewReader(buf)).Next()
	if err != nil || kind != KindRestore {
		t.Fatalf("Next = %v, %v", kind, err)
	}
	if g := binary.BigEndian.Uint64(payload); g != 100_000_000 {
		t.Fatalf("granularity prefix = %d, want 100000000", g)
	}
	if !bytes.Equal(payload[8:], want) {
		t.Fatalf("restore payload[8:] differs from the snapshot payload:\n got %x\nwant %x", payload[8:], want)
	}
}

// TestSnapshotRestoreCorruption drives the two migration frames
// through the corruption classes that matter for stored state:
// framing damage, inner state-CRC damage (with the outer CRC
// recomputed, so only the inner check can catch it), length lies, and
// oversize state.
func TestSnapshotRestoreCorruption(t *testing.T) {
	snap := testSnapshot()
	valid, err := AppendSnapshot(nil, snap)
	if err != nil {
		t.Fatal(err)
	}

	// Framing-level damage is caught by the decoder.
	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"flipped state bit", func(b []byte) []byte { b[HeaderSize+snapshotFixed+100] ^= 0x01; return b }, ErrBadCRC},
		{"truncated mid-state", func(b []byte) []byte { return b[:len(b)/2] }, ErrBadFrame},
		{"bad version", func(b []byte) []byte { b[2] = 9; return b }, ErrBadVersion},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), valid...))
			if _, _, err := NewDecoder(bytes.NewReader(b)).Next(); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}

	// Inner-CRC damage: corrupt the state and reseal the outer frame,
	// simulating a snapshot corrupted at rest and replayed in a
	// Restore. Only the inner CRC can catch this.
	t.Run("state corrupted at rest", func(t *testing.T) {
		payload := append([]byte(nil), valid[HeaderSize:len(valid)-TrailerSize]...)
		payload[snapshotFixed+len(snap.Spec)+50] ^= 0x40
		var s Snapshot
		if err := DecodeSnapshot(payload, &s); !errors.Is(err, ErrBadCRC) {
			t.Fatalf("err = %v, want ErrBadCRC", err)
		}
		// The same damage replayed in a Restore: the frame trailer is
		// sealed over the corrupt bytes, so the inner CRC is all that
		// catches it.
		buf, err := AppendRestore(nil, 1e8, payload)
		if err != nil {
			t.Fatal(err)
		}
		kind, rp, err := NewDecoder(bytes.NewReader(buf)).Next()
		if err != nil || kind != KindRestore {
			t.Fatalf("Next = %v, %v", kind, err)
		}
		if _, err := DecodeRestore(rp, &s); !errors.Is(err, ErrBadCRC) {
			t.Fatalf("restore err = %v, want ErrBadCRC", err)
		}
	})

	// Length lies: declared spec/state lengths disagreeing with the
	// payload.
	t.Run("length lies", func(t *testing.T) {
		payload := append([]byte(nil), valid[HeaderSize:len(valid)-TrailerSize]...)
		payload[32], payload[33] = 0xFF, 0xFF // specLen
		var s Snapshot
		if err := DecodeSnapshot(payload, &s); !errors.Is(err, ErrShort) {
			t.Fatalf("lying spec length: err = %v, want ErrShort", err)
		}
		if _, err := DecodeRestore(make([]byte, restorePrefix-1), &s); !errors.Is(err, ErrShort) {
			t.Fatalf("short restore: err = %v, want ErrShort", err)
		}
		if _, err := DecodeRestore(make([]byte, restorePrefix+snapshotFixed-1), &s); !errors.Is(err, ErrShort) {
			t.Fatalf("restore with short snapshot: err = %v, want ErrShort", err)
		}
		if err := DecodeSnapshot(make([]byte, snapshotFixed-1), &s); !errors.Is(err, ErrShort) {
			t.Fatalf("short snapshot: err = %v, want ErrShort", err)
		}
	})

	// Oversize state is an encode-side error, never a truncation.
	t.Run("oversize state", func(t *testing.T) {
		big := &Snapshot{SessionID: 1, Spec: []byte("gpht_8_1024"), State: make([]byte, MaxPayload)}
		if _, err := AppendSnapshot(nil, big); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("AppendSnapshot oversize: err = %v, want ErrTooLarge", err)
		}
		if _, err := AppendRestore(nil, 1e8, big.State[:MaxSnapshotPayload+1]); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("AppendRestore oversize: err = %v, want ErrTooLarge", err)
		}
		// The largest snapshot still fits a Restore frame.
		edge := &Snapshot{Spec: big.Spec, State: big.State[:MaxSnapshotPayload-snapshotFixed-len(big.Spec)]}
		if _, err := AppendRestore(nil, 1e8, snapshotPayload(t, edge)); err != nil {
			t.Fatalf("AppendRestore of a maximal snapshot: %v", err)
		}
		var s Snapshot
		if err := DecodeSnapshot(make([]byte, MaxSnapshotPayload+1), &s); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("DecodeSnapshot oversize: err = %v, want ErrTooLarge", err)
		}
	})

	// Restore framing round-trips through the decoder too.
	t.Run("restore round trip", func(t *testing.T) {
		buf, err := AppendRestore(nil, 1e8, valid[HeaderSize:len(valid)-TrailerSize])
		if err != nil {
			t.Fatal(err)
		}
		kind, payload, err := NewDecoder(bytes.NewReader(buf)).Next()
		if err != nil || kind != KindRestore {
			t.Fatalf("Next = %v, %v", kind, err)
		}
		var r Snapshot
		if g, err := DecodeRestore(payload, &r); err != nil || g != 1e8 {
			t.Fatalf("DecodeRestore = %d, %v", g, err)
		}
		if r.LastSeq != snap.LastSeq || !bytes.Equal(r.State, snap.State) || string(r.Spec) != string(snap.Spec) {
			t.Fatal("restore round trip lost the snapshot value")
		}
	})
}

// TestSnapshotEncodeZeroAlloc: a draining server snapshots every
// session it holds; the frame encode must not allocate once the write
// buffer is warm.
func TestSnapshotEncodeZeroAlloc(t *testing.T) {
	snap := testSnapshot()
	buf := make([]byte, 0, MaxFrameSize)
	if n := testing.AllocsPerRun(1000, func() {
		var err error
		if buf, err = AppendSnapshot(buf[:0], snap); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("snapshot encode allocs/op = %v, want 0", n)
	}
}

// TestRollupGoldenBytes pins the Rollup encoding byte-for-byte, so an
// accidental layout change (field order, width, endianness) fails
// loudly instead of silently breaking cross-version decoding.
func TestRollupGoldenBytes(t *testing.T) {
	r := Rollup{
		NodeID:      0x0102030405060708,
		Shard:       0x0A0B0C0D,
		BucketStart: 0x1112131415161718,
		BucketLenNs: 0x2122232425262728,
		Starts:      0x31,
		Shed:        0x32,
		LatSumNs:    0x33,
	}
	r.Samples[0] = 0x41
	r.Hits[1] = 0x42
	r.Misses[RollupCells-1] = 0x43
	r.LatCounts[RollupLatBuckets-1] = 0x44
	r.Top[0] = RollupTop{SessionID: 0x51, Samples: 0x52}

	buf := AppendRollup(nil, &r)
	if len(buf) != HeaderSize+rollupSize+TrailerSize {
		t.Fatalf("frame size = %d, want %d", len(buf), HeaderSize+rollupSize+TrailerSize)
	}
	wantHdr := []byte{0x50, 0x68, 3, byte(KindRollup), 0x00, 0x00, 0x04, 0xE4}
	if !bytes.Equal(buf[:HeaderSize], wantHdr) {
		t.Errorf("header = % x, want % x", buf[:HeaderSize], wantHdr)
	}
	p := buf[HeaderSize:]
	wantFixed := []byte{
		0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, // NodeID
		0x0A, 0x0B, 0x0C, 0x0D, // Shard
		0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18, // BucketStart
		0x21, 0x22, 0x23, 0x24, 0x25, 0x26, 0x27, 0x28, // BucketLenNs
		0, 0, 0, 0, 0, 0, 0, 0x31, // Starts
		0, 0, 0, 0, 0, 0, 0, 0x32, // Shed
		0, 0, 0, 0, 0, 0, 0, 0x33, // LatSumNs
	}
	if !bytes.Equal(p[:52], wantFixed) {
		t.Errorf("fixed fields = % x, want % x", p[:52], wantFixed)
	}
	if p[52+7] != 0x41 { // Samples[0], big-endian low byte
		t.Errorf("Samples[0] low byte = %#x, want 0x41", p[52+7])
	}
	if p[52+8*RollupCells+8+7] != 0x42 { // Hits[1]
		t.Errorf("Hits[1] low byte = %#x, want 0x42", p[52+8*RollupCells+8+7])
	}
	missesOff := 52 + 2*8*RollupCells + 8*(RollupCells-1)
	if p[missesOff+7] != 0x43 {
		t.Errorf("Misses[last] low byte = %#x, want 0x43", p[missesOff+7])
	}
	latOff := 52 + 3*8*RollupCells + 8*(RollupLatBuckets-1)
	if p[latOff+7] != 0x44 {
		t.Errorf("LatCounts[last] low byte = %#x, want 0x44", p[latOff+7])
	}
	topOff := 52 + 3*8*RollupCells + 8*RollupLatBuckets
	if p[topOff+7] != 0x51 || p[topOff+15] != 0x52 {
		t.Errorf("Top[0] low bytes = %#x,%#x, want 0x51,0x52", p[topOff+7], p[topOff+15])
	}

	var got Rollup
	kind, payload, err := NewDecoder(bytes.NewReader(buf)).Next()
	if err != nil || kind != KindRollup {
		t.Fatalf("Next = %v, %v", kind, err)
	}
	if err := DecodeRollup(payload, &got); err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Errorf("golden round trip = %+v, want %+v", got, r)
	}
}

func TestDecoderRejectsCorruption(t *testing.T) {
	valid := AppendSample(nil, &Sample{SessionID: 1, Seq: 2})

	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }, ErrBadMagic},
		{"bad version", func(b []byte) []byte { b[2] = 99; return b }, ErrBadVersion},
		{"bad kind", func(b []byte) []byte { b[3] = 200; return b }, ErrBadKind},
		{"oversized length", func(b []byte) []byte {
			b[4], b[5], b[6], b[7] = 0xFF, 0xFF, 0xFF, 0xFF
			return b
		}, ErrTooLarge},
		{"flipped payload bit", func(b []byte) []byte { b[HeaderSize] ^= 0x01; return b }, ErrBadCRC},
		{"flipped crc bit", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }, ErrBadCRC},
		{"truncated header", func(b []byte) []byte { return b[:HeaderSize-3] }, ErrBadFrame},
		{"truncated payload", func(b []byte) []byte { return b[:HeaderSize+5] }, ErrBadFrame},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), valid...))
			_, _, err := NewDecoder(bytes.NewReader(b)).Next()
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("err = %v does not wrap ErrBadFrame", err)
			}
		})
	}
}

func TestPayloadLengthMismatches(t *testing.T) {
	var s Sample
	if err := DecodeSample(make([]byte, sampleSize-1), &s); !errors.Is(err, ErrShort) {
		t.Errorf("short sample: err = %v, want ErrShort", err)
	}
	var h Hello
	if err := DecodeHello(make([]byte, helloFixed-1), &h); !errors.Is(err, ErrShort) {
		t.Errorf("short hello: err = %v, want ErrShort", err)
	}
	// Hello whose declared spec length disagrees with the payload.
	bad, err := AppendHello(nil, &Hello{SessionID: 1, Spec: []byte("gpht")})
	if err != nil {
		t.Fatal(err)
	}
	payload := bad[HeaderSize : len(bad)-TrailerSize]
	payload[18], payload[19] = 0xFF, 0xFF
	if err := DecodeHello(payload, &h); !errors.Is(err, ErrShort) {
		t.Errorf("lying hello spec length: err = %v, want ErrShort", err)
	}
	var e ErrorFrame
	if err := DecodeError(make([]byte, errorFixed-1), &e); !errors.Is(err, ErrShort) {
		t.Errorf("short error: err = %v, want ErrShort", err)
	}
}

// TestOversizeRejected: an oversized Hello spec or Error message is an
// encode-side ErrTooLarge, never a silent truncation (the same
// contract AppendSnapshot/AppendRestore established), while payloads
// exactly at the bound still encode and round-trip.
func TestOversizeRejected(t *testing.T) {
	long := []byte(strings.Repeat("x", MaxPayload))
	if _, err := AppendHello(nil, &Hello{SessionID: 1, Spec: long}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize hello spec: err = %v, want ErrTooLarge", err)
	}
	if _, err := AppendError(nil, &ErrorFrame{Code: CodeBadFrame, Msg: long}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize error msg: err = %v, want ErrTooLarge", err)
	}

	// At the bound: the largest legal spec still encodes and decodes.
	max := long[:MaxPayload-helloFixed]
	buf, err := AppendHello(nil, &Hello{SessionID: 1, Spec: max})
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) > MaxFrameSize {
		t.Fatalf("encoded hello is %d bytes, above MaxFrameSize %d", len(buf), MaxFrameSize)
	}
	kind, payload, err := NewDecoder(bytes.NewReader(buf)).Next()
	if err != nil || kind != KindHello {
		t.Fatalf("Next = %v, %v", kind, err)
	}
	var h Hello
	if err := DecodeHello(payload, &h); err != nil {
		t.Fatal(err)
	}
	if len(h.Spec) != len(max) {
		t.Errorf("max-size spec round trip = %d bytes, want %d", len(h.Spec), len(max))
	}
}

// replayReader hands out the same encoded frames forever, so
// allocation tests and benchmarks can stream without re-encoding.
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

// TestHotPathZeroAlloc proves the serving hot path — Sample encode,
// stream decode, Prediction encode, Prediction decode — allocates
// nothing in steady state.
func TestHotPathZeroAlloc(t *testing.T) {
	s := Sample{SessionID: 3, Seq: 9, Uops: 1e8, MemTx: 5, Cycles: 7}
	p := Prediction{SessionID: 3, Seq: 9, Actual: 2, Next: 4, Class: 4, Setting: 3}
	buf := make([]byte, 0, MaxFrameSize)
	if n := testing.AllocsPerRun(1000, func() {
		buf = AppendSample(buf[:0], &s)
		buf = AppendPrediction(buf[:0], &p)
	}); n != 0 {
		t.Errorf("encode allocs/op = %v, want 0", n)
	}

	frames := AppendPrediction(AppendSample(nil, &s), &p)
	dec := NewDecoder(&replayReader{frames: frames})
	// Warm the decoder's frame buffer before measuring.
	if _, _, err := dec.Next(); err != nil {
		t.Fatal(err)
	}
	var ds Sample
	var dp Prediction
	if n := testing.AllocsPerRun(1000, func() {
		kind, payload, err := dec.Next()
		if err != nil {
			t.Fatal(err)
		}
		switch kind {
		case KindSample:
			if err := DecodeSample(payload, &ds); err != nil {
				t.Fatal(err)
			}
		case KindPrediction:
			if err := DecodePrediction(payload, &dp); err != nil {
				t.Fatal(err)
			}
		case KindInvalid, KindHello, KindAck, KindDrain, KindError, KindRollup, KindSnapshot, KindRestore, KindBatch:
			t.Fatalf("unexpected kind %v", kind)
		default:
			t.Fatalf("unknown kind %v", kind)
		}
	}); n != 0 {
		t.Errorf("decode allocs/op = %v, want 0", n)
	}
}

// TestRollupZeroAlloc proves the rollup flush path — Rollup encode and
// stream decode — allocates nothing in steady state.
func TestRollupZeroAlloc(t *testing.T) {
	r := testRollup()
	buf := make([]byte, 0, MaxFrameSize)
	if n := testing.AllocsPerRun(1000, func() {
		buf = AppendRollup(buf[:0], r)
	}); n != 0 {
		t.Errorf("encode allocs/op = %v, want 0", n)
	}

	dec := NewDecoder(&replayReader{frames: AppendRollup(nil, r)})
	// Warm the decoder's frame buffer (rollups are larger than the
	// initial 256-byte capacity).
	if _, _, err := dec.Next(); err != nil {
		t.Fatal(err)
	}
	var dr Rollup
	if n := testing.AllocsPerRun(1000, func() {
		_, payload, err := dec.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeRollup(payload, &dr); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("decode allocs/op = %v, want 0", n)
	}
}

// BenchmarkRollupEncode measures one flush-path exchange: encode a
// Rollup frame and decode it off the stream. This is the per-bucket
// protocol cost of the fleet rollup pipeline.
func BenchmarkRollupEncode(b *testing.B) {
	r := testRollup()
	dec := NewDecoder(&replayReader{frames: AppendRollup(nil, r)})
	buf := make([]byte, 0, MaxFrameSize)
	var dr Rollup
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendRollup(buf[:0], r)
		if _, payload, err := dec.Next(); err != nil {
			b.Fatal(err)
		} else if err := DecodeRollup(payload, &dr); err != nil {
			b.Fatal(err)
		}
	}
	_ = buf
}

// BenchmarkWireRoundTrip measures one full hot-path exchange: encode a
// Sample, decode it off the stream, encode the answering Prediction,
// decode that. This is the per-interval protocol cost a phased
// deployment pays on top of prediction itself.
func BenchmarkWireRoundTrip(b *testing.B) {
	s := Sample{SessionID: 3, Seq: 9, Uops: 1e8, MemTx: 5, Cycles: 7}
	p := Prediction{SessionID: 3, Seq: 9, Actual: 2, Next: 4, Class: 4, Setting: 3}
	frames := AppendPrediction(AppendSample(nil, &s), &p)
	src := &replayReader{frames: frames}
	dec := NewDecoder(src)
	buf := make([]byte, 0, MaxFrameSize)
	var ds Sample
	var dp Prediction
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendSample(buf[:0], &s)
		if _, payload, err := dec.Next(); err != nil {
			b.Fatal(err)
		} else if err := DecodeSample(payload, &ds); err != nil {
			b.Fatal(err)
		}
		buf = AppendPrediction(buf[:0], &p)
		if _, payload, err := dec.Next(); err != nil {
			b.Fatal(err)
		} else if err := DecodePrediction(payload, &dp); err != nil {
			b.Fatal(err)
		}
	}
	_ = buf
}
