package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"testing"
	"testing/iotest"
)

// frameDecoder is the frame-at-a-time decoder the read-ahead Decoder
// replaced — io.ReadFull of the header, then of the body — kept as the
// reference its frames and error verdicts are checked against.
type frameDecoder struct {
	r   io.Reader
	buf []byte
}

func (d *frameDecoder) Next() (FrameKind, []byte, error) {
	hdr := make([]byte, HeaderSize)
	if _, err := io.ReadFull(d.r, hdr); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return KindInvalid, nil, fmt.Errorf("%w: truncated header: %v", ErrBadFrame, err)
		}
		return KindInvalid, nil, err
	}
	kind, n, err := DecodeHeader(hdr)
	if err != nil {
		return KindInvalid, nil, err
	}
	d.buf = append(hdr, make([]byte, n+TrailerSize)...)
	if _, err := io.ReadFull(d.r, d.buf[HeaderSize:]); err != nil {
		return KindInvalid, nil, fmt.Errorf("%w: truncated frame: %v", ErrBadFrame, err)
	}
	body := d.buf[:HeaderSize+n]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(d.buf[HeaderSize+n:]) {
		return KindInvalid, nil, ErrBadCRC
	}
	return kind, body[HeaderSize:], nil
}

type nexter interface {
	Next() (FrameKind, []byte, error)
}

// decodeAll runs a decoder to its first error and renders every frame
// and that error, so two decoders' outputs compare as strings.
func decodeAll(d nexter) []string {
	var out []string
	for {
		kind, payload, err := d.Next()
		if err != nil {
			return append(out, "error: "+err.Error())
		}
		out = append(out, fmt.Sprintf("%v %x", kind, payload))
	}
}

// testStream encodes a multi-frame stream: control frames of every
// size class around the given number of 64-record batch frames.
func testStream(t testing.TB, batches int) []byte {
	t.Helper()
	buf, err := AppendHello(nil, &Hello{SessionID: 1, GranularityUops: 1e8, Spec: []byte("gpht_8_128")})
	if err != nil {
		t.Fatal(err)
	}
	buf = AppendAck(buf, &Ack{SessionID: 1, NumPhases: 6})
	for b := 0; b < batches; b++ {
		recs := make([]Sample, 64)
		for i := range recs {
			recs[i] = Sample{SessionID: uint64(1 + i%3), Seq: uint64(64*b + i), Uops: 1e8, MemTx: uint64(i * 1000), Cycles: 9e7}
		}
		if buf, err = AppendBatchSamples(buf, recs); err != nil {
			t.Fatal(err)
		}
	}
	buf = AppendPrediction(buf, &Prediction{SessionID: 1, Seq: 9, Actual: 2, Next: 3, Class: 3, Setting: 2})
	buf = AppendRollup(buf, &Rollup{NodeID: 7, Shard: 1})
	buf = AppendDrain(buf, &Drain{SessionID: 1, LastSeq: 191})
	return buf
}

// bigStream appends a snapshot frame larger than the decoder's initial
// buffer, which it must grow for, between two small frames.
func bigStream(t testing.TB) []byte {
	t.Helper()
	buf := AppendAck(nil, &Ack{SessionID: 1, NumPhases: 6})
	state := bytes.Repeat([]byte{0xA5, 0x5A, 0x11}, (MaxSnapshotPayload-200)/3)
	buf, err := AppendSnapshot(buf, &Snapshot{SessionID: 1, LastSeq: 10, Processed: 11, Spec: []byte("gpht_8_128"), State: state})
	if err != nil {
		t.Fatal(err)
	}
	return AppendDrain(buf, &Drain{SessionID: 1, LastSeq: 10})
}

// oneRead returns the whole stream, and io.EOF, from its first Read.
type oneRead struct{ b []byte }

func (r *oneRead) Read(p []byte) (int, error) {
	n := copy(p, r.b)
	r.b = r.b[n:]
	if len(r.b) == 0 {
		return n, io.EOF
	}
	return n, nil
}

// TestDecoderReadAheadReaders: the same stream decodes to the same
// frames, then io.EOF, however the transport splits it — one byte per
// Read, half of each request, every two-way split, or the whole stream
// in one Read that also reports EOF — and to exactly what the
// frame-at-a-time reference decoder gives.
func TestDecoderReadAheadReaders(t *testing.T) {
	for name, stream := range map[string][]byte{"small": testStream(t, 3), "big frame": bigStream(t)} {
		want := decodeAll(&frameDecoder{r: bytes.NewReader(stream)})
		if len(want) < 4 || want[len(want)-1] != "error: EOF" {
			t.Fatalf("%s: reference decode = %d frames ending %q", name, len(want)-1, want[len(want)-1])
		}
		readers := map[string]func() io.Reader{
			"whole":        func() io.Reader { return bytes.NewReader(stream) },
			"one read":     func() io.Reader { return &oneRead{b: stream} },
			"data+EOF":     func() io.Reader { return iotest.DataErrReader(bytes.NewReader(stream)) },
			"one byte":     func() io.Reader { return iotest.OneByteReader(bytes.NewReader(stream)) },
			"half":         func() io.Reader { return iotest.HalfReader(bytes.NewReader(stream)) },
			"half+EOF":     func() io.Reader { return iotest.DataErrReader(iotest.HalfReader(bytes.NewReader(stream))) },
			"one byte+EOF": func() io.Reader { return iotest.DataErrReader(iotest.OneByteReader(bytes.NewReader(stream))) },
		}
		for rname, mk := range readers {
			if got := decodeAll(NewDecoder(mk())); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s via %s reader: decoded\n%.300v\nwant\n%.300v", name, rname, got, want)
			}
		}
	}
	stream := testStream(t, 3)
	want := fmt.Sprint(decodeAll(&frameDecoder{r: bytes.NewReader(stream)}))
	for k := 0; k <= len(stream); k++ {
		r := io.MultiReader(bytes.NewReader(stream[:k]), bytes.NewReader(stream[k:]))
		if got := fmt.Sprint(decodeAll(NewDecoder(r))); got != want {
			t.Fatalf("stream split at byte %d decodes differently:\n%.300s\nwant\n%.300s", k, got, want)
		}
	}
}

// TestDecoderReadAheadTruncation: a stream cut at any byte, or failing
// there with a transport error, yields the reference decoder's frames
// and then its verdict — io.EOF at a frame boundary, a truncated
// header or frame (ErrBadFrame) inside one, the transport error itself
// between frames — under a whole-buffer reader, one that fails with a
// transport error, and, on a sweep of the offsets, a one-byte reader.
func TestDecoderReadAheadTruncation(t *testing.T) {
	errBoom := errors.New("boom")
	for name, stream := range map[string][]byte{"small": testStream(t, 1), "big frame": bigStream(t)} {
		step := 1
		if len(stream) > 1<<14 {
			step = 97 // every offset of the small stream, a sweep of the big one
		}
		for k := 0; k <= len(stream); k += step {
			cut := stream[:k]
			for i, tc := range []struct {
				name string
				mk   func() io.Reader
			}{
				{"eof", func() io.Reader { return bytes.NewReader(cut) }},
				{"error", func() io.Reader { return io.MultiReader(bytes.NewReader(cut), iotest.ErrReader(errBoom)) }},
				{"eof one byte", func() io.Reader { return iotest.OneByteReader(bytes.NewReader(cut)) }},
			} {
				if i == 2 && k%61 != 0 {
					continue // byte-at-a-time on a sweep of the offsets
				}
				want := fmt.Sprint(decodeAll(&frameDecoder{r: tc.mk()}))
				if got := fmt.Sprint(decodeAll(NewDecoder(tc.mk()))); got != want {
					t.Fatalf("%s cut at %d (%s): decoded\n%.400s\nwant\n%.400s", name, k, tc.name, got, want)
				}
			}
		}
	}
}

// countingReader counts the Read calls that reach the transport.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestDecoderReadAheadReadCount: a run of back-to-back 64-record batch
// frames costs one Read per chunk of the stream, plus the one that
// finds EOF, not a header Read and a body Read per frame.
func TestDecoderReadAheadReadCount(t *testing.T) {
	recs := make([]Sample, 64)
	for i := range recs {
		recs[i] = Sample{SessionID: 1, Seq: uint64(i), Uops: 1e8, MemTx: 5, Cycles: 7}
	}
	frame, err := AppendBatchSamples(nil, recs)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 5, 64, 333} {
		stream := bytes.Repeat(frame, n)
		cr := &countingReader{r: bytes.NewReader(stream)}
		dec := NewDecoder(cr)
		for i := 0; i < n; i++ {
			if _, _, err := dec.Next(); err != nil {
				t.Fatalf("%d frames: frame %d: %v", n, i, err)
			}
		}
		if _, _, err := dec.Next(); err != io.EOF {
			t.Fatalf("%d frames: after the last frame err = %v, want EOF", n, err)
		}
		if limit := (len(stream)+readChunk-1)/readChunk + 1; cr.reads > limit {
			t.Errorf("%d frames (%d bytes): %d Reads, want at most %d", n, len(stream), cr.reads, limit)
		}
	}
}
