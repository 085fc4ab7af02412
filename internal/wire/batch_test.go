package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

// TestBatchGoldenBytes pins the batch frame layout byte-for-byte: a
// change that reorders fields or widths breaks deployed peers even if
// every round-trip test still passes.
func TestBatchGoldenBytes(t *testing.T) {
	got, err := AppendBatchSamples(nil, []Sample{{
		SessionID: 0x0102030405060708,
		Seq:       9,
		Uops:      100_000_000,
		MemTx:     0xABCD,
		Cycles:    90_000_000,
		WallNs:    0x11,
	}})
	if err != nil {
		t.Fatal(err)
	}

	var want []byte
	want = binary.BigEndian.AppendUint16(want, Magic)
	want = append(want, Version, byte(KindBatch))
	want = binary.BigEndian.AppendUint32(want, uint32(batchFixed+SampleRecordSize))
	want = append(want, BatchVersion1, byte(KindSample))
	want = binary.BigEndian.AppendUint16(want, 1)
	for _, v := range []uint64{0x0102030405060708, 9, 100_000_000, 0xABCD, 90_000_000, 0x11} {
		want = binary.BigEndian.AppendUint64(want, v)
	}
	want = binary.BigEndian.AppendUint32(want, crc32.ChecksumIEEE(want))

	if !bytes.Equal(got, want) {
		t.Fatalf("sample batch bytes:\n got %x\nwant %x", got, want)
	}

	got, err = AppendBatchPredictions(nil, []Prediction{{
		SessionID: 7, Seq: 3, Actual: 1, Next: 2, Class: 2, Setting: 5, Dropped: 4,
	}})
	if err != nil {
		t.Fatal(err)
	}
	want = want[:0]
	want = binary.BigEndian.AppendUint16(want, Magic)
	want = append(want, Version, byte(KindBatch))
	want = binary.BigEndian.AppendUint32(want, uint32(batchFixed+PredictionRecordSize))
	want = append(want, BatchVersion1, byte(KindPrediction))
	want = binary.BigEndian.AppendUint16(want, 1)
	want = binary.BigEndian.AppendUint64(want, 7)
	want = binary.BigEndian.AppendUint64(want, 3)
	want = append(want, 1, 2, 2, 5)
	want = binary.BigEndian.AppendUint64(want, 4)
	want = binary.BigEndian.AppendUint32(want, crc32.ChecksumIEEE(want))

	if !bytes.Equal(got, want) {
		t.Fatalf("prediction batch bytes:\n got %x\nwant %x", got, want)
	}
}

// TestBatchEncodeBounds: empty and over-capacity batches are
// encode-side errors, and the largest legal batch still fits a frame.
func TestBatchEncodeBounds(t *testing.T) {
	if _, err := AppendBatchSamples(nil, nil); !errors.Is(err, ErrTooLarge) {
		t.Errorf("empty sample batch: err = %v, want ErrTooLarge", err)
	}
	if _, err := AppendBatchPredictions(nil, nil); !errors.Is(err, ErrTooLarge) {
		t.Errorf("empty prediction batch: err = %v, want ErrTooLarge", err)
	}
	if _, err := AppendBatchSamples(nil, make([]Sample, MaxBatchSamples+1)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize sample batch: err = %v, want ErrTooLarge", err)
	}
	if _, err := AppendBatchPredictions(nil, make([]Prediction, MaxBatchPredictions+1)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize prediction batch: err = %v, want ErrTooLarge", err)
	}

	buf, err := AppendBatchSamples(nil, make([]Sample, MaxBatchSamples))
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) > MaxFrameSize {
		t.Fatalf("max sample batch is %d bytes, above MaxFrameSize %d", len(buf), MaxFrameSize)
	}
	kind, payload, err := NewDecoder(bytes.NewReader(buf)).Next()
	if err != nil || kind != KindBatch {
		t.Fatalf("Next = %v, %v", kind, err)
	}
	elem, n, _, err := DecodeBatch(payload)
	if err != nil || elem != KindSample || n != MaxBatchSamples {
		t.Fatalf("DecodeBatch = %v, %d, %v; want KindSample, %d", elem, n, err, MaxBatchSamples)
	}
}

// TestDecodeBatchRejections drives every malformed-payload branch of
// DecodeBatch and checks the error classes are the shared sentinels.
func TestDecodeBatchRejections(t *testing.T) {
	valid, err := AppendBatchSamples(nil, []Sample{{SessionID: 1, Seq: 2}})
	if err != nil {
		t.Fatal(err)
	}
	payload := valid[HeaderSize : len(valid)-TrailerSize]

	cases := []struct {
		name    string
		payload []byte
		want    error
	}{
		{"short", payload[:batchFixed-1], ErrShort},
		{"bad format version", func() []byte {
			p := bytes.Clone(payload)
			p[0] = BatchVersion1 + 1
			return p
		}(), ErrBadVersion},
		{"bad element kind", func() []byte {
			p := bytes.Clone(payload)
			p[1] = byte(KindDrain)
			return p
		}(), ErrBadKind},
		{"nested batch", func() []byte {
			p := bytes.Clone(payload)
			p[1] = byte(KindBatch)
			return p
		}(), ErrBadKind},
		{"zero count", func() []byte {
			p := bytes.Clone(payload[:batchFixed])
			binary.BigEndian.PutUint16(p[2:], 0)
			return p
		}(), ErrShort},
		{"count overstates payload", func() []byte {
			p := bytes.Clone(payload)
			binary.BigEndian.PutUint16(p[2:], 2)
			return p
		}(), ErrShort},
		{"count understates payload", func() []byte {
			p := bytes.Clone(payload)
			return append(p, 0)
		}(), ErrShort},
	}
	for _, tc := range cases {
		if _, _, _, err := DecodeBatch(tc.payload); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestBatchCorruptCRC: a flipped bit anywhere in a batch frame is
// caught by the frame CRC before DecodeBatch ever sees the payload.
func TestBatchCorruptCRC(t *testing.T) {
	frame, err := AppendBatchPredictions(nil, []Prediction{{SessionID: 1, Seq: 0, Next: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{HeaderSize, HeaderSize + 2, len(frame) - TrailerSize - 1, len(frame) - 1} {
		bad := bytes.Clone(frame)
		bad[pos] ^= 0x40
		_, _, err := NewDecoder(bytes.NewReader(bad)).Next()
		if !errors.Is(err, ErrBadCRC) {
			t.Errorf("corrupt byte %d: err = %v, want ErrBadCRC", pos, err)
		}
	}
}

// TestBatchZeroAlloc: batch encode into a reused buffer and decode of
// a full frame allocate nothing — the contract the serving hot path
// depends on at high fan-in.
func TestBatchZeroAlloc(t *testing.T) {
	samples := make([]Sample, 64)
	for i := range samples {
		samples[i] = Sample{SessionID: 1, Seq: uint64(i), Uops: 1e8, Cycles: 9e7}
	}
	buf := make([]byte, 0, MaxFrameSize)
	var frame []byte
	if allocs := testing.AllocsPerRun(200, func() {
		var err error
		frame, err = AppendBatchSamples(buf[:0], samples)
		if err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("AppendBatchSamples allocs/op = %v, want 0", allocs)
	}

	payload := frame[HeaderSize : len(frame)-TrailerSize]
	var s Sample
	if allocs := testing.AllocsPerRun(200, func() {
		elem, n, recs, err := DecodeBatch(payload)
		if err != nil || elem != KindSample {
			t.Fatal(elem, err)
		}
		for i := 0; i < n; i++ {
			if err := DecodeSample(recs[i*SampleRecordSize:(i+1)*SampleRecordSize], &s); err != nil {
				t.Fatal(err)
			}
		}
	}); allocs != 0 {
		t.Errorf("DecodeBatch+DecodeSample allocs/op = %v, want 0", allocs)
	}
	if s.Seq != uint64(len(samples)-1) {
		t.Fatalf("last decoded seq = %d, want %d", s.Seq, len(samples)-1)
	}
}

// BenchmarkBatchRoundTrip is the batch analogue of WireRoundTrip: one
// 64-sample batch encoded, CRC-verified through the decoder, and
// unpacked record by record. Compare per-sample cost against
// BenchmarkWireRoundTrip to see the framing amortization.
func BenchmarkBatchRoundTrip(b *testing.B) {
	const n = 64
	samples := make([]Sample, n)
	for i := range samples {
		samples[i] = Sample{SessionID: 1, Seq: uint64(i), Uops: 1e8, MemTx: 42, Cycles: 9e7}
	}
	buf := make([]byte, 0, MaxFrameSize)
	frame, err := AppendBatchSamples(buf, samples)
	if err != nil {
		b.Fatal(err)
	}
	r := bytes.NewReader(frame)
	dec := NewDecoder(r)
	var s Sample
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame, err = AppendBatchSamples(frame[:0], samples)
		if err != nil {
			b.Fatal(err)
		}
		r.Reset(frame)
		kind, payload, err := dec.Next()
		if err != nil || kind != KindBatch {
			b.Fatal(kind, err)
		}
		elem, cnt, recs, err := DecodeBatch(payload)
		if err != nil || elem != KindSample || cnt != n {
			b.Fatal(elem, cnt, err)
		}
		for j := 0; j < cnt; j++ {
			if err := DecodeSample(recs[j*SampleRecordSize:(j+1)*SampleRecordSize], &s); err != nil {
				b.Fatal(err)
			}
		}
	}
	if s.Seq != n-1 {
		b.Fatal("bad final seq")
	}
}

// TestSampleSessionID: the routing read agrees with the full decode on
// every record of a batch.
func TestSampleSessionID(t *testing.T) {
	samples := []Sample{{SessionID: 7, Seq: 1}, {SessionID: 1 << 63, Seq: 2}, {SessionID: 0, Seq: 3}}
	frame, err := AppendBatchSamples(nil, samples)
	if err != nil {
		t.Fatal(err)
	}
	_, n, recs, err := DecodeBatch(frame[HeaderSize : len(frame)-TrailerSize])
	if err != nil || n != len(samples) {
		t.Fatal(n, err)
	}
	for i, want := range samples {
		if got := SampleSessionID(recs[i*SampleRecordSize:]); got != want.SessionID {
			t.Errorf("record %d: SampleSessionID = %d, want %d", i, got, want.SessionID)
		}
	}
}

// TestPredictionSessionID: the routing read agrees with the full decode
// on every record of a prediction batch.
func TestPredictionSessionID(t *testing.T) {
	preds := []Prediction{{SessionID: 7, Seq: 1}, {SessionID: 1 << 63, Seq: 2}, {SessionID: 0, Seq: 3}}
	frame, err := AppendBatchPredictions(nil, preds)
	if err != nil {
		t.Fatal(err)
	}
	_, n, recs, err := DecodeBatch(frame[HeaderSize : len(frame)-TrailerSize])
	if err != nil || n != len(preds) {
		t.Fatal(n, err)
	}
	for i, want := range preds {
		if got := PredictionSessionID(recs[i*PredictionRecordSize:]); got != want.SessionID {
			t.Errorf("record %d: PredictionSessionID = %d, want %d", i, got, want.SessionID)
		}
	}
}
