package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// FuzzDecoder feeds arbitrary bytes to the streaming decoder. The
// invariants: the decoder never panics, never returns a payload larger
// than MaxPayload, and every frame it does accept re-encodes to the
// exact bytes it was decoded from (the framing is canonical).
func FuzzDecoder(f *testing.F) {
	if b, err := AppendHello(nil, &Hello{SessionID: 1, GranularityUops: 1e8, Spec: []byte("gpht_8_128")}); err == nil {
		f.Add(b)
	}
	f.Add(AppendAck(nil, &Ack{SessionID: 1, NumPhases: 6, Flags: FlagSnapshot}))
	f.Add(AppendSample(nil, &Sample{SessionID: 1, Seq: 0, Uops: 1e8, MemTx: 42, Cycles: 9e7}))
	f.Add(AppendPrediction(nil, &Prediction{SessionID: 1, Seq: 0, Actual: 1, Next: 2, Class: 2, Setting: 1}))
	f.Add(AppendDrain(nil, &Drain{SessionID: 1, LastSeq: 99}))
	if b, err := AppendError(nil, &ErrorFrame{Code: CodeBadFrame, Msg: []byte("boom")}); err == nil {
		f.Add(b)
	}
	if b, err := AppendBatchSamples(nil, []Sample{
		{SessionID: 1, Seq: 0, Uops: 1e8, MemTx: 42, Cycles: 9e7},
		{SessionID: 1, Seq: 1, Uops: 1e8, MemTx: 7, Cycles: 8e7},
	}); err == nil {
		f.Add(b)
	}
	if b, err := AppendBatchPredictions(nil, []Prediction{
		{SessionID: 1, Seq: 0, Actual: 1, Next: 2, Class: 2, Setting: 1},
	}); err == nil {
		f.Add(b)
	}
	if snap, err := AppendSnapshot(nil, &Snapshot{SessionID: 1, LastSeq: 10, Processed: 11,
		Spec: []byte("gpht_8_128"), State: []byte{0x4D, 1, 6, 0, 0}}); err == nil {
		f.Add(snap)
		// A version-3 Restore: the granularity, then that Snapshot's
		// payload verbatim.
		if b, err := AppendRestore(nil, 1e8, snap[HeaderSize:len(snap)-TrailerSize]); err == nil {
			f.Add(b)
		}
	}
	// A multi-frame stream, so mutations land at every position of
	// the decoder's read-ahead buffer.
	f.Add(testStream(f, 2))
	f.Add([]byte{0x50, 0x68, 1, 3, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(bytes.Repeat([]byte{0x50}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDecoder(bytes.NewReader(data))
		start := 0
		for {
			kind, payload, err := dec.Next()
			if err != nil {
				if !errors.Is(err, ErrBadFrame) && err != io.EOF {
					t.Fatalf("unexpected error class: %v", err)
				}
				return
			}
			if len(payload) > MaxPayload {
				t.Fatalf("payload %d bytes exceeds MaxPayload", len(payload))
			}
			frameLen := HeaderSize + len(payload) + TrailerSize
			original := data[start : start+frameLen]
			start += frameLen

			// Re-encode through the typed structs where the payload is
			// well-formed; the bytes must match exactly.
			var re []byte
			switch kind {
			case KindHello:
				var h Hello
				if DecodeHello(payload, &h) == nil {
					re, _ = AppendHello(nil, &h)
				}
			case KindAck:
				var a Ack
				if DecodeAck(payload, &a) == nil {
					re = AppendAck(nil, &a)
				}
			case KindSample:
				var s Sample
				if DecodeSample(payload, &s) == nil {
					re = AppendSample(nil, &s)
				}
			case KindPrediction:
				var p Prediction
				if DecodePrediction(payload, &p) == nil {
					re = AppendPrediction(nil, &p)
				}
			case KindDrain:
				var d Drain
				if DecodeDrain(payload, &d) == nil {
					re = AppendDrain(nil, &d)
				}
			case KindError:
				var e ErrorFrame
				if DecodeError(payload, &e) == nil {
					re, _ = AppendError(nil, &e)
				}
			case KindRollup:
				var r Rollup
				if DecodeRollup(payload, &r) == nil {
					re = AppendRollup(nil, &r)
				}
			case KindSnapshot:
				var s Snapshot
				if DecodeSnapshot(payload, &s) == nil {
					re, _ = AppendSnapshot(nil, &s)
				}
			case KindRestore:
				var s Snapshot
				if g, err := DecodeRestore(payload, &s); err == nil {
					if snap, err := AppendSnapshot(nil, &s); err == nil {
						re, _ = AppendRestore(nil, g, snap[HeaderSize:len(snap)-TrailerSize])
					}
				}
			case KindBatch:
				if elem, n, recs, err := DecodeBatch(payload); err == nil {
					switch elem {
					case KindSample:
						ss := make([]Sample, n)
						ok := true
						for i := range ss {
							if DecodeSample(recs[i*SampleRecordSize:(i+1)*SampleRecordSize], &ss[i]) != nil {
								ok = false
								break
							}
						}
						if ok {
							re, _ = AppendBatchSamples(nil, ss)
						}
					case KindPrediction:
						ps := make([]Prediction, n)
						ok := true
						for i := range ps {
							if DecodePrediction(recs[i*PredictionRecordSize:(i+1)*PredictionRecordSize], &ps[i]) != nil {
								ok = false
								break
							}
						}
						if ok {
							re, _ = AppendBatchPredictions(nil, ps)
						}
					default:
						t.Fatalf("DecodeBatch accepted element kind %v", elem)
					}
				}
			case KindInvalid:
				t.Fatalf("decoder accepted KindInvalid")
			default:
				t.Fatalf("decoder accepted unknown kind %v", kind)
			}
			if re != nil && !bytes.Equal(re, original) {
				t.Fatalf("re-encoded %v frame differs:\n got %x\nwant %x", kind, re, original)
			}
		}
	})
}

// FuzzSnapshotDecode feeds arbitrary bytes straight to DecodeSnapshot
// (bypassing the framing, as a stored snapshot payload would be). The
// invariants: no panic; on success the declared lengths are consistent,
// the state blob's CRC verifies, and the payload re-encodes to a frame
// whose payload equals the input (canonical layout).
func FuzzSnapshotDecode(f *testing.F) {
	if b, err := AppendSnapshot(nil, &Snapshot{SessionID: 3, LastSeq: 7, Processed: 8, Dropped: 1,
		Spec: []byte("fixwindow_128"), State: bytes.Repeat([]byte{0xAB}, 160)}); err == nil {
		f.Add(b[HeaderSize : len(b)-TrailerSize])
	}
	f.Add(make([]byte, snapshotFixed))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, payload []byte) {
		var s Snapshot
		if err := DecodeSnapshot(payload, &s); err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		if len(s.Spec)+len(s.State)+snapshotFixed != len(payload) {
			t.Fatalf("accepted inconsistent lengths: spec %d state %d payload %d",
				len(s.Spec), len(s.State), len(payload))
		}
		re, err := AppendSnapshot(nil, &s)
		if err != nil {
			t.Fatalf("accepted payload fails to re-encode: %v", err)
		}
		if !bytes.Equal(re[HeaderSize:len(re)-TrailerSize], payload) {
			t.Fatal("snapshot payload is not canonical")
		}
	})
}

// FuzzRestoreDecode feeds arbitrary bytes to DecodeRestore — the frame
// a server decodes from an untrusted client, so the one where
// robustness matters most. A Restore payload is the 8-byte granularity
// followed by a Snapshot payload, so the invariants are: no panic;
// inputs shorter than the prefix fail with ErrBadFrame; otherwise the
// verdict and the decoded value equal DecodeSnapshot's on the bytes
// after the prefix, the granularity is the prefix, and AppendRestore
// rebuilds the exact payload.
func FuzzRestoreDecode(f *testing.F) {
	if b, err := AppendSnapshot(nil, &Snapshot{SessionID: 3, LastSeq: 7, Processed: 8, Dropped: 1,
		Spec: []byte("fixwindow_128"), State: bytes.Repeat([]byte{0xAB}, 160)}); err == nil {
		f.Add(append(binary.BigEndian.AppendUint64(nil, 100_000_000), b[HeaderSize:len(b)-TrailerSize]...))
	}
	f.Add(make([]byte, restorePrefix+snapshotFixed))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, payload []byte) {
		var r Snapshot
		g, err := DecodeRestore(payload, &r)
		if len(payload) < restorePrefix {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("short restore payload: err = %v, want ErrBadFrame", err)
			}
			return
		}
		var s Snapshot
		serr := DecodeSnapshot(payload[restorePrefix:], &s)
		if (err == nil) != (serr == nil) {
			t.Fatalf("verdicts differ: restore %v, snapshot %v", err, serr)
		}
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		if g != binary.BigEndian.Uint64(payload) || r.SessionID != s.SessionID || r.LastSeq != s.LastSeq ||
			r.Processed != s.Processed || r.Dropped != s.Dropped ||
			!bytes.Equal(r.Spec, s.Spec) || !bytes.Equal(r.State, s.State) {
			t.Fatalf("restore decoded %d, %+v; snapshot decoded %+v", g, r, s)
		}
		re, err := AppendRestore(nil, g, payload[restorePrefix:])
		if err != nil {
			t.Fatalf("accepted payload fails to re-encode: %v", err)
		}
		if !bytes.Equal(re[HeaderSize:len(re)-TrailerSize], payload) {
			t.Fatal("restore payload is not canonical")
		}
	})
}
