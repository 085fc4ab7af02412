// Package wire defines the phased serving protocol: the versioned,
// length-prefixed binary framing that carries per-interval PMC samples
// from monitored nodes to a phase-prediction service and predictions
// back (DESIGN.md §11).
//
// The protocol is deliberately minimal — ten frame kinds over one
// TCP stream, multiplexing any number of sessions by an explicit
// session id — and deliberately cheap: every frame is a fixed 8-byte
// header, a payload, and a CRC-32 trailer. Samples and predictions
// travel only inside KindBatch frames (a single sample is a batch of
// one), and both directions of that hot path encode and decode without
// allocating, which the package's testing.AllocsPerRun tests prove.
// A session's migratable state has one codec as well: a Restore frame
// is the sampling granularity followed by the Snapshot payload the
// draining server sent, byte for byte, and DecodeSnapshot is the only
// decoder of that value in either direction.
//
// Frame layout (all integers big-endian):
//
//	offset  size  field
//	0       2     magic 0x5068 ("Ph")
//	2       1     protocol version (currently 3)
//	3       1     frame kind
//	4       4     payload length N (bounded by MaxPayload)
//	8       N     payload (kind-specific, see the typed structs)
//	8+N     4     CRC-32 (IEEE) over bytes [0, 8+N)
//
// A stream is self-delimiting: a reader that knows nothing about the
// kinds can still skip frames by length, and any corruption — a bad
// magic, an unknown version, an oversized length, a failed checksum —
// is detected before a payload byte is interpreted.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Magic is the two-byte frame preamble ("Ph").
const Magic uint16 = 0x5068

// Version is the protocol version every frame header carries. Version
// 2 made KindBatch the only carrier of samples and predictions; version
// 3 made a Restore payload a granularity followed by a Snapshot payload
// verbatim. An older peer fails at the header, and the server answers
// it with an Error frame of code CodeVersion.
const Version uint8 = 3

// MaxPayload bounds a single frame's payload. The bound exists so a
// corrupted or hostile length field cannot make a reader allocate
// gigabytes. It is sized for the largest legitimate frames: a full
// Batch, and a Snapshot carrying a deep GPHT monitor (gpht_8_1024 is
// ~18.5 KiB of predictor state).
const MaxPayload = 1 << 16

// Header and trailer sizes of the framing.
const (
	HeaderSize  = 8
	TrailerSize = 4
	// MaxFrameSize is the largest possible encoded frame.
	MaxFrameSize = HeaderSize + MaxPayload + TrailerSize
)

// FrameKind enumerates the frame types of the protocol.
// Switches over FrameKind are checked for exhaustiveness by
// phasemonlint, so a new frame kind forces every dispatcher to decide
// how to handle it.
type FrameKind uint8

const (
	// KindInvalid is the zero FrameKind; it never appears on a valid
	// stream.
	KindInvalid FrameKind = iota
	// KindHello opens a session (client → server): session id,
	// sampling granularity, and the predictor spec to serve it with.
	KindHello
	// KindAck accepts a session (server → client), echoing the session
	// id and fixing the phase count predictions will use.
	KindAck
	// KindSample is the element kind of a client → server Batch: one
	// sampling interval's raw PMC counters. A standalone Sample frame
	// is a protocol error.
	KindSample
	// KindPrediction is the element kind of a server → client Batch:
	// the answer to one sample — the interval's classified phase, the
	// predicted next phase, its Table 1 class, and the DVFS setting the
	// translation selects. A standalone Prediction frame is a protocol
	// error.
	KindPrediction
	// KindDrain flushes a session: sent by a client to end a session
	// cleanly, and by a draining server after the last prediction of
	// each session it is shutting down.
	KindDrain
	// KindError reports a protocol or session failure; conn-fatal
	// errors carry session id 0.
	KindError
	// KindRollup carries one aggregation bucket's fleet rollup
	// (server → subscriber): per-(class × setting) sample/hit/miss
	// counts, latency histogram, and the bucket's top sessions.
	// Emitted on connections that opened with FlagRollup.
	KindRollup
	// KindSnapshot hands a session's full predictor state back to the
	// client (server → client): sent by a draining server, before the
	// session's Drain frame, for every session that opened with
	// FlagSnapshot. The state blob carries its own CRC so a stored
	// snapshot stays verifiable after the framing trailer is gone.
	KindSnapshot
	// KindRestore reopens a session from a snapshot (client → server):
	// the sampling granularity followed by a Snapshot payload exactly as
	// the draining server sent it. The server rebuilds the predictor
	// from the spec, restores its state, and answers with an Ack, after
	// which prediction continues bit-identically with the pre-drain
	// stream.
	KindRestore
	// KindBatch packs N ≥ 1 Sample or Prediction records into one
	// frame (either direction; the element kind is explicit in the
	// payload). It is the only frame that carries samples and
	// predictions: a single sample is a batch of one.
	KindBatch
)

// String names the kind for logs and errors.
func (k FrameKind) String() string {
	switch k {
	case KindInvalid:
		return "invalid"
	case KindHello:
		return "hello"
	case KindAck:
		return "ack"
	case KindSample:
		return "sample"
	case KindPrediction:
		return "prediction"
	case KindDrain:
		return "drain"
	case KindError:
		return "error"
	case KindRollup:
		return "rollup"
	case KindSnapshot:
		return "snapshot"
	case KindRestore:
		return "restore"
	case KindBatch:
		return "batch"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Valid reports whether k is a kind defined by the protocol.
func (k FrameKind) Valid() bool { return k >= KindHello && k <= KindBatch }

// ErrorCode classifies Error frames.
type ErrorCode uint16

const (
	// CodeUnknown is the zero code.
	CodeUnknown ErrorCode = iota
	// CodeBadFrame reports an undecodable frame (bad magic, CRC,
	// length, kind, or payload). Connection-fatal.
	CodeBadFrame
	// CodeVersion reports an unsupported protocol version.
	// Connection-fatal.
	CodeVersion
	// CodeBadSpec reports a Hello whose predictor spec failed to
	// parse or build. The session is not opened; the connection lives.
	CodeBadSpec
	// CodeSessionLimit reports a Hello rejected by the server's
	// per-client session cap. The connection lives.
	CodeSessionLimit
	// CodeDuplicateSession reports a Hello for a session id already
	// open on the connection.
	CodeDuplicateSession
	// CodeUnknownSession reports a Sample or Drain for a session id
	// the connection never opened.
	CodeUnknownSession
	// CodeOverloaded reports a server refusing new sessions while
	// draining.
	CodeOverloaded
	// CodeBadSnapshot reports a Restore whose state blob the rebuilt
	// predictor refused (wrong family, version skew, geometry mismatch,
	// corruption) — the session is not opened — or a resumable session
	// whose state the draining server could not hand back (a Snapshot
	// over MaxSnapshotPayload), sent in place of the Snapshot frame.
	// The connection lives.
	CodeBadSnapshot
)

// String names the code.
func (c ErrorCode) String() string {
	switch c {
	case CodeUnknown:
		return "unknown"
	case CodeBadFrame:
		return "bad-frame"
	case CodeVersion:
		return "version"
	case CodeBadSpec:
		return "bad-spec"
	case CodeSessionLimit:
		return "session-limit"
	case CodeDuplicateSession:
		return "duplicate-session"
	case CodeUnknownSession:
		return "unknown-session"
	case CodeOverloaded:
		return "overloaded"
	case CodeBadSnapshot:
		return "bad-snapshot"
	default:
		return fmt.Sprintf("code(%d)", uint16(c))
	}
}

// Decode errors. ErrBadFrame is the root every framing failure wraps,
// so transports can test one sentinel.
var (
	ErrBadFrame   = errors.New("wire: bad frame")
	ErrBadMagic   = fmt.Errorf("%w: bad magic", ErrBadFrame)
	ErrBadVersion = fmt.Errorf("%w: unsupported version", ErrBadFrame)
	ErrBadKind    = fmt.Errorf("%w: unknown frame kind", ErrBadFrame)
	ErrTooLarge   = fmt.Errorf("%w: payload exceeds MaxPayload", ErrBadFrame)
	ErrBadCRC     = fmt.Errorf("%w: checksum mismatch", ErrBadFrame)
	ErrShort      = fmt.Errorf("%w: short payload", ErrBadFrame)
)

// --- typed payloads ------------------------------------------------

// Hello opens a session. Spec references the decode buffer when
// produced by DecodeHello; copy it before the next read if it must
// outlive the frame.
type Hello struct {
	// SessionID identifies the session on this connection. Any value
	// is legal; ids are scoped to the connection.
	SessionID uint64
	// GranularityUops is the node's sampling interval in retired uops
	// (informational; the paper's deployment uses 100M).
	GranularityUops uint64
	// Flags modifies the session being opened; undefined bits must be
	// sent as 0. The protocol defines FlagRollup and FlagSnapshot.
	Flags uint16
	// Spec is the predictor spec string (core.PredictorSpec grammar,
	// e.g. "gpht_8_128") the session's predictor is built from.
	Spec []byte
}

// FlagRollup, set on a Hello, subscribes the connection to the
// server's rollup stream instead of opening a prediction session: the
// server answers with an Ack and thereafter pushes a Rollup frame per
// flushed aggregation bucket. The Hello's Spec is ignored.
const FlagRollup uint16 = 1 << 0

// FlagSnapshot, set on a Hello, asks the server to emit a Snapshot
// frame for the session — carrying its full predictor state — before
// the Drain frame when the server drains the session. Sessions opened
// without it drain stateless; a restored session always has it.
const FlagSnapshot uint16 = 1 << 1

// Ack accepts a session.
type Ack struct {
	SessionID uint64
	// NumPhases is the phase count of the server's classifier; phase
	// ids in Prediction frames are in [1, NumPhases].
	NumPhases uint8
	// Flags echoes the flag bits the server accepted and will honor
	// (FlagRollup, FlagSnapshot; FlagSnapshot for every Restore); bits
	// the server does not understand come back 0.
	Flags uint16
}

// Sample carries one interval's raw counters. The server derives the
// phase metrics exactly as the kernel module does: Mem/Uop =
// MemTx/Uops, UPC = Uops/Cycles.
type Sample struct {
	SessionID uint64
	// Seq numbers samples within the session, starting at 0.
	Seq uint64
	// Uops, MemTx, Cycles are the interval's PMC deltas.
	Uops   uint64
	MemTx  uint64
	Cycles uint64
	// WallNs is the interval's wall-clock duration in nanoseconds
	// (informational).
	WallNs uint64
}

// Prediction answers one sample.
type Prediction struct {
	SessionID uint64
	// Seq echoes the answered sample's sequence number.
	Seq uint64
	// Actual is the classified phase of the answered interval.
	Actual uint8
	// Next is the predicted phase of the upcoming interval.
	Next uint8
	// Class is Next mapped onto the paper's six-way taxonomy
	// (phase.Class).
	Class uint8
	// Setting is the DVFS setting the server's translation selects for
	// Next (dvfs.Setting).
	Setting uint8
	// Dropped is the session's cumulative count of samples shed by the
	// server's backpressure policy (drop-oldest on a full queue).
	Dropped uint64
}

// Drain flushes a session (or, with SessionID 0 from the server, the
// whole connection).
type Drain struct {
	SessionID uint64
	// LastSeq is the highest sample sequence number processed;
	// NoSamples when the session processed none.
	LastSeq uint64
}

// NoSamples is the Drain.LastSeq value of a session that never
// processed a sample.
const NoSamples = ^uint64(0)

// Snapshot is a session's portable state: the payload of a Snapshot
// frame, and the tail of a Restore frame that resumes the session.
// Spec and State reference the decode buffer when produced by
// DecodeSnapshot or DecodeRestore; copy them before the next read if
// they must outlive the frame.
//
// State is opaque to the wire layer — it is the monitor envelope
// produced by core.(*Monitor).Snapshot — and carries its own CRC-32 in
// the payload (distinct from the framing trailer), so a snapshot that
// is stored and replayed later in a Restore is still integrity-checked
// even though the original frame's trailer is gone. An encoded
// Snapshot payload is at most MaxSnapshotPayload bytes, so every
// snapshot fits a Restore frame.
type Snapshot struct {
	SessionID uint64
	// LastSeq is the highest sample sequence number processed
	// (NoSamples if none), as in Drain.
	LastSeq uint64
	// Processed and Dropped are the session's cumulative served and
	// shed sample counts; a resumed session continues both.
	Processed uint64
	Dropped   uint64
	// Spec is the predictor spec string the session was serving; the
	// resuming server rebuilds the same predictor from it.
	Spec []byte
	// State is the opaque monitor state blob (core snapshot format,
	// DESIGN.md §14).
	State []byte
}

// ErrorFrame reports a failure. Msg references the decode buffer when
// produced by DecodeError.
type ErrorFrame struct {
	Code ErrorCode
	// SessionID scopes the error; 0 means the whole connection.
	SessionID uint64
	Msg       []byte
}

// Rollup grid dimensions. They are part of the wire format:
// changing any of them changes the Rollup payload size and therefore
// requires a protocol version bump.
const (
	// RollupClasses is the number of phase classes a rollup
	// distinguishes: phase.ClassUnknown plus the paper's six-way
	// taxonomy (phase.NumClasses).
	RollupClasses = 7
	// RollupSettings is the number of DVFS operating points
	// (dvfs.NumSettings, the Pentium M SpeedStep ladder).
	RollupSettings = 6
	// RollupCells is the flattened (class × setting) grid; cell index
	// is class*RollupSettings + setting.
	RollupCells = RollupClasses * RollupSettings
	// RollupLatBuckets is the number of cumulative latency-histogram
	// buckets (telemetry.DefaultFrameBounds' seven bounds plus the
	// overflow bucket).
	RollupLatBuckets = 8
	// RollupTopK is the number of top (greediest-by-samples) sessions a
	// rollup carries.
	RollupTopK = 8
)

// RollupTop is one entry of a rollup's top-sessions list.
type RollupTop struct {
	// SessionID is the fleet-unique session id.
	SessionID uint64
	// Samples is the session's sample count within the bucket.
	Samples uint64
}

// Rollup carries one flushed aggregation bucket from one shard of a
// phased node: fixed-size, integer-only counts so rollups from any
// number of shards and nodes merge by addition (internal/agg).
type Rollup struct {
	// NodeID identifies the emitting phased node.
	NodeID uint64
	// Shard is the emitting shard (worker) index within the node.
	Shard uint32
	// BucketStart is the bucket's start time in Unix nanoseconds,
	// aligned down to a multiple of BucketLenNs.
	BucketStart uint64
	// BucketLenNs is the bucket length in nanoseconds.
	BucketLenNs uint64
	// Starts counts sessions whose first (unscored) interval landed in
	// this bucket — an exact distinct-session-starts count.
	Starts uint64
	// Shed counts samples dropped by backpressure in this bucket.
	Shed uint64
	// LatSumNs is the summed serving latency of the bucket's scored
	// samples, in nanoseconds.
	LatSumNs uint64
	// Samples counts scored samples per (class × setting) cell.
	Samples [RollupCells]uint64
	// Hits counts correct predictions per cell; Misses counts
	// incorrect ones. Samples - Hits - Misses is the cell's unscored
	// (first-interval) count.
	Hits   [RollupCells]uint64
	Misses [RollupCells]uint64
	// LatCounts is the serving-latency histogram over
	// telemetry.DefaultFrameBounds (last bucket is overflow).
	LatCounts [RollupLatBuckets]uint64
	// Top lists the bucket's highest-volume sessions, count
	// descending then session id ascending; unused entries are zero.
	Top [RollupTopK]RollupTop
}

// Payload sizes of the fixed-size frames.
const (
	ackSize        = 11
	sampleSize     = 48
	predictionSize = 28
	drainSize      = 16
	helloFixed     = 20 // sessionID + granularity + flags + specLen
	errorFixed     = 12 // code + sessionID + msgLen
	// snapshotFixed: sessionID + lastSeq + processed + dropped +
	// specLen(u16) + stateLen(u32) + stateCRC(u32).
	snapshotFixed = 42
	// restorePrefix: the granularity(u64) a Restore payload carries
	// ahead of the Snapshot payload.
	restorePrefix = 8
	// MaxSnapshotPayload bounds an encoded Snapshot payload so that it
	// still fits a frame behind the Restore prefix.
	MaxSnapshotPayload = MaxPayload - restorePrefix
	// rollupSize: 7 scalar fields (NodeID..LatSumNs, Shard packed as 4
	// bytes) + 3 cell grids + latency buckets + top-K pairs.
	rollupSize = 52 + 3*8*RollupCells + 8*RollupLatBuckets + 16*RollupTopK
)

// Batch frame layout. The payload is a 4-byte envelope — batch format
// version, element kind, record count — followed by the records packed
// back to back in exactly the encoding AppendSample/AppendPrediction
// give a frame payload, so the per-record codecs are shared.
const (
	// BatchVersion1 is the batch envelope's format version (independent
	// of the framing version, so the packing can evolve without a
	// protocol bump).
	BatchVersion1 uint8 = 1
	// batchFixed: version(u8) + element kind(u8) + count(u16).
	batchFixed = 4
	// SampleRecordSize and PredictionRecordSize are the packed
	// per-record sizes inside a batch (identical to the Sample and
	// Prediction payload sizes); record i of a decoded batch spans
	// records[i*size : (i+1)*size].
	SampleRecordSize     = sampleSize
	PredictionRecordSize = predictionSize
	// MaxBatchSamples / MaxBatchPredictions bound one batch frame's
	// record count by MaxPayload.
	MaxBatchSamples     = (MaxPayload - batchFixed) / SampleRecordSize
	MaxBatchPredictions = (MaxPayload - batchFixed) / PredictionRecordSize
	// BatchOverhead is the framing plus envelope cost of one batch
	// frame; a coalescer sizing its encode buffer for N records needs
	// BatchOverhead + N*record size bytes.
	BatchOverhead = HeaderSize + batchFixed + TrailerSize
)

// --- encoding ------------------------------------------------------

// appendHeader writes the 8-byte header for a payload of length n.
func appendHeader(dst []byte, kind FrameKind, n int) []byte {
	dst = binary.BigEndian.AppendUint16(dst, Magic)
	dst = append(dst, Version, byte(kind))
	return binary.BigEndian.AppendUint32(dst, uint32(n))
}

// appendCRC seals a frame whose header began at position start.
func appendCRC(dst []byte, start int) []byte {
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// AppendHello encodes a Hello frame onto dst. An oversized spec is an
// error, never a truncation — a silently shortened spec would open a
// session serving a different predictor than the one asked for. In
// practice specs are tens of bytes.
//
//lint:hotpath
func AppendHello(dst []byte, h *Hello) ([]byte, error) {
	if len(h.Spec) > MaxPayload-helloFixed {
		return dst, fmt.Errorf("%w: hello spec %d bytes", ErrTooLarge, len(h.Spec))
	}
	start := len(dst)
	dst = appendHeader(dst, KindHello, helloFixed+len(h.Spec))
	dst = binary.BigEndian.AppendUint64(dst, h.SessionID)
	dst = binary.BigEndian.AppendUint64(dst, h.GranularityUops)
	dst = binary.BigEndian.AppendUint16(dst, h.Flags)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(h.Spec)))
	dst = append(dst, h.Spec...)
	return appendCRC(dst, start), nil
}

// AppendAck encodes an Ack frame onto dst.
//
//lint:hotpath
func AppendAck(dst []byte, a *Ack) []byte {
	start := len(dst)
	dst = appendHeader(dst, KindAck, ackSize)
	dst = binary.BigEndian.AppendUint64(dst, a.SessionID)
	dst = append(dst, a.NumPhases)
	dst = binary.BigEndian.AppendUint16(dst, a.Flags)
	return appendCRC(dst, start)
}

// appendSampleRecord packs one Sample body (no framing) onto dst;
// shared by AppendSample and the batch encoder.
//
//lint:hotpath
func appendSampleRecord(dst []byte, s *Sample) []byte {
	dst = binary.BigEndian.AppendUint64(dst, s.SessionID)
	dst = binary.BigEndian.AppendUint64(dst, s.Seq)
	dst = binary.BigEndian.AppendUint64(dst, s.Uops)
	dst = binary.BigEndian.AppendUint64(dst, s.MemTx)
	dst = binary.BigEndian.AppendUint64(dst, s.Cycles)
	return binary.BigEndian.AppendUint64(dst, s.WallNs)
}

// appendPredictionRecord packs one Prediction body (no framing) onto
// dst; shared by AppendPrediction and the batch encoder.
//
//lint:hotpath
func appendPredictionRecord(dst []byte, p *Prediction) []byte {
	dst = binary.BigEndian.AppendUint64(dst, p.SessionID)
	dst = binary.BigEndian.AppendUint64(dst, p.Seq)
	dst = append(dst, p.Actual, p.Next, p.Class, p.Setting)
	return binary.BigEndian.AppendUint64(dst, p.Dropped)
}

// AppendSample encodes a standalone Sample frame onto dst. Servers
// reject such frames (samples travel in Batch frames); it remains for
// frame-level tests and benchmarks.
//
//lint:hotpath
func AppendSample(dst []byte, s *Sample) []byte {
	start := len(dst)
	dst = appendHeader(dst, KindSample, sampleSize)
	dst = appendSampleRecord(dst, s)
	return appendCRC(dst, start)
}

// AppendPrediction encodes a standalone Prediction frame onto dst.
// Clients reject such frames (predictions travel in Batch frames); it
// remains for frame-level tests and benchmarks.
//
//lint:hotpath
func AppendPrediction(dst []byte, p *Prediction) []byte {
	start := len(dst)
	dst = appendHeader(dst, KindPrediction, predictionSize)
	dst = appendPredictionRecord(dst, p)
	return appendCRC(dst, start)
}

// AppendBatchSamples encodes recs as one KindBatch frame onto dst. An
// empty or over-MaxBatchSamples batch is an error, never a truncation.
//
//lint:hotpath
func AppendBatchSamples(dst []byte, recs []Sample) ([]byte, error) {
	if len(recs) == 0 || len(recs) > MaxBatchSamples {
		return dst, fmt.Errorf("%w: batch of %d samples", ErrTooLarge, len(recs))
	}
	start := len(dst)
	dst = appendHeader(dst, KindBatch, batchFixed+len(recs)*SampleRecordSize)
	dst = append(dst, BatchVersion1, byte(KindSample))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(recs)))
	for i := range recs {
		dst = appendSampleRecord(dst, &recs[i])
	}
	return appendCRC(dst, start), nil
}

// AppendBatchPredictions encodes recs as one KindBatch frame onto dst,
// with the same bounds contract as AppendBatchSamples.
//
//lint:hotpath
func AppendBatchPredictions(dst []byte, recs []Prediction) ([]byte, error) {
	if len(recs) == 0 || len(recs) > MaxBatchPredictions {
		return dst, fmt.Errorf("%w: batch of %d predictions", ErrTooLarge, len(recs))
	}
	start := len(dst)
	dst = appendHeader(dst, KindBatch, batchFixed+len(recs)*PredictionRecordSize)
	dst = append(dst, BatchVersion1, byte(KindPrediction))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(recs)))
	for i := range recs {
		dst = appendPredictionRecord(dst, &recs[i])
	}
	return appendCRC(dst, start), nil
}

// AppendDrain encodes a Drain frame onto dst.
//
//lint:hotpath
func AppendDrain(dst []byte, d *Drain) []byte {
	start := len(dst)
	dst = appendHeader(dst, KindDrain, drainSize)
	dst = binary.BigEndian.AppendUint64(dst, d.SessionID)
	dst = binary.BigEndian.AppendUint64(dst, d.LastSeq)
	return appendCRC(dst, start)
}

// AppendError encodes an Error frame onto dst. An oversized message is
// an error, as in AppendHello — diagnostics must not be silently cut.
//
//lint:hotpath
func AppendError(dst []byte, e *ErrorFrame) ([]byte, error) {
	if len(e.Msg) > MaxPayload-errorFixed {
		return dst, fmt.Errorf("%w: error msg %d bytes", ErrTooLarge, len(e.Msg))
	}
	start := len(dst)
	dst = appendHeader(dst, KindError, errorFixed+len(e.Msg))
	dst = binary.BigEndian.AppendUint16(dst, uint16(e.Code))
	dst = binary.BigEndian.AppendUint64(dst, e.SessionID)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(e.Msg)))
	dst = append(dst, e.Msg...)
	return appendCRC(dst, start), nil
}

// AppendSnapshot encodes a Snapshot frame onto dst. A snapshot whose
// payload would exceed MaxSnapshotPayload is an error, never a
// truncation: a truncated state blob is worse than no snapshot.
//
//lint:hotpath
func AppendSnapshot(dst []byte, s *Snapshot) ([]byte, error) {
	if len(s.Spec) > int(^uint16(0)) || snapshotFixed+len(s.Spec)+len(s.State) > MaxSnapshotPayload {
		return dst, fmt.Errorf("%w: snapshot spec %d + state %d bytes", ErrTooLarge, len(s.Spec), len(s.State))
	}
	start := len(dst)
	dst = appendHeader(dst, KindSnapshot, snapshotFixed+len(s.Spec)+len(s.State))
	dst = binary.BigEndian.AppendUint64(dst, s.SessionID)
	dst = binary.BigEndian.AppendUint64(dst, s.LastSeq)
	dst = binary.BigEndian.AppendUint64(dst, s.Processed)
	dst = binary.BigEndian.AppendUint64(dst, s.Dropped)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s.Spec)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(s.State)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(s.State))
	dst = append(dst, s.Spec...)
	dst = append(dst, s.State...)
	return appendCRC(dst, start), nil
}

// AppendRestore encodes a Restore frame onto dst: the sampling
// granularity followed by snapshot, a Snapshot payload as the draining
// server sent it. The payload is copied verbatim, not re-encoded or
// checked — the resuming server's DecodeRestore validates it — so the
// only encode-side error is an oversized one.
//
//lint:hotpath
func AppendRestore(dst []byte, granularityUops uint64, snapshot []byte) ([]byte, error) {
	if len(snapshot) > MaxSnapshotPayload {
		return dst, fmt.Errorf("%w: restore snapshot %d bytes", ErrTooLarge, len(snapshot))
	}
	start := len(dst)
	dst = appendHeader(dst, KindRestore, restorePrefix+len(snapshot))
	dst = binary.BigEndian.AppendUint64(dst, granularityUops)
	dst = append(dst, snapshot...)
	return appendCRC(dst, start), nil
}

// AppendRollup encodes a Rollup frame onto dst.
//
//lint:hotpath
func AppendRollup(dst []byte, r *Rollup) []byte {
	start := len(dst)
	dst = appendHeader(dst, KindRollup, rollupSize)
	dst = binary.BigEndian.AppendUint64(dst, r.NodeID)
	dst = binary.BigEndian.AppendUint32(dst, r.Shard)
	dst = binary.BigEndian.AppendUint64(dst, r.BucketStart)
	dst = binary.BigEndian.AppendUint64(dst, r.BucketLenNs)
	dst = binary.BigEndian.AppendUint64(dst, r.Starts)
	dst = binary.BigEndian.AppendUint64(dst, r.Shed)
	dst = binary.BigEndian.AppendUint64(dst, r.LatSumNs)
	for i := range r.Samples {
		dst = binary.BigEndian.AppendUint64(dst, r.Samples[i])
	}
	for i := range r.Hits {
		dst = binary.BigEndian.AppendUint64(dst, r.Hits[i])
	}
	for i := range r.Misses {
		dst = binary.BigEndian.AppendUint64(dst, r.Misses[i])
	}
	for i := range r.LatCounts {
		dst = binary.BigEndian.AppendUint64(dst, r.LatCounts[i])
	}
	for i := range r.Top {
		dst = binary.BigEndian.AppendUint64(dst, r.Top[i].SessionID)
		dst = binary.BigEndian.AppendUint64(dst, r.Top[i].Samples)
	}
	return appendCRC(dst, start)
}

// --- decoding ------------------------------------------------------

// DecodeHeader validates an 8-byte header and returns the kind and
// payload length. It does not verify the CRC (the payload has not been
// read yet); Decoder.Next and VerifyFrame do.
//
//lint:hotpath
func DecodeHeader(hdr []byte) (FrameKind, int, error) {
	if len(hdr) < HeaderSize {
		return KindInvalid, 0, fmt.Errorf("%w: header %d bytes", ErrShort, len(hdr))
	}
	if binary.BigEndian.Uint16(hdr) != Magic {
		return KindInvalid, 0, ErrBadMagic
	}
	if hdr[2] != Version {
		return KindInvalid, 0, fmt.Errorf("%w: %d", ErrBadVersion, hdr[2])
	}
	kind := FrameKind(hdr[3])
	if !kind.Valid() {
		return KindInvalid, 0, fmt.Errorf("%w: %d", ErrBadKind, hdr[3])
	}
	n := binary.BigEndian.Uint32(hdr[4:])
	if n > MaxPayload {
		return KindInvalid, 0, fmt.Errorf("%w: %d", ErrTooLarge, n)
	}
	return kind, int(n), nil
}

// DecodeHello parses a Hello payload. h.Spec aliases the payload.
//
//lint:hotpath
func DecodeHello(payload []byte, h *Hello) error {
	if len(payload) < helloFixed {
		return fmt.Errorf("%w: hello %d bytes", ErrShort, len(payload))
	}
	h.SessionID = binary.BigEndian.Uint64(payload)
	h.GranularityUops = binary.BigEndian.Uint64(payload[8:])
	h.Flags = binary.BigEndian.Uint16(payload[16:])
	n := int(binary.BigEndian.Uint16(payload[18:]))
	if len(payload) != helloFixed+n {
		return fmt.Errorf("%w: hello spec length %d in %d-byte payload", ErrShort, n, len(payload))
	}
	h.Spec = payload[helloFixed:]
	return nil
}

// DecodeAck parses an Ack payload.
//
//lint:hotpath
func DecodeAck(payload []byte, a *Ack) error {
	if len(payload) != ackSize {
		return fmt.Errorf("%w: ack %d bytes", ErrShort, len(payload))
	}
	a.SessionID = binary.BigEndian.Uint64(payload)
	a.NumPhases = payload[8]
	a.Flags = binary.BigEndian.Uint16(payload[9:])
	return nil
}

// DecodeSample parses a Sample payload into s without allocating.
//
//lint:hotpath
func DecodeSample(payload []byte, s *Sample) error {
	if len(payload) != sampleSize {
		return fmt.Errorf("%w: sample %d bytes", ErrShort, len(payload))
	}
	s.SessionID = binary.BigEndian.Uint64(payload)
	s.Seq = binary.BigEndian.Uint64(payload[8:])
	s.Uops = binary.BigEndian.Uint64(payload[16:])
	s.MemTx = binary.BigEndian.Uint64(payload[24:])
	s.Cycles = binary.BigEndian.Uint64(payload[32:])
	s.WallNs = binary.BigEndian.Uint64(payload[40:])
	return nil
}

// SampleSessionID returns the SessionID of the Sample record rec (a
// Sample payload, or one record of a sample batch) without decoding
// the rest, so a reader can route a record before it decodes it.
//
//lint:hotpath
func SampleSessionID(rec []byte) uint64 { return binary.BigEndian.Uint64(rec) }

// PredictionSessionID returns the SessionID of the Prediction record
// rec (one record of a prediction batch) without decoding the rest, so
// a reader can find a batch's runs of one session before it decodes
// them.
//
//lint:hotpath
func PredictionSessionID(rec []byte) uint64 { return binary.BigEndian.Uint64(rec) }

// DecodePrediction parses a Prediction payload into p without
// allocating.
//
//lint:hotpath
func DecodePrediction(payload []byte, p *Prediction) error {
	if len(payload) != predictionSize {
		return fmt.Errorf("%w: prediction %d bytes", ErrShort, len(payload))
	}
	p.SessionID = binary.BigEndian.Uint64(payload)
	p.Seq = binary.BigEndian.Uint64(payload[8:])
	p.Actual = payload[16]
	p.Next = payload[17]
	p.Class = payload[18]
	p.Setting = payload[19]
	p.Dropped = binary.BigEndian.Uint64(payload[20:])
	return nil
}

// DecodeDrain parses a Drain payload.
//
//lint:hotpath
func DecodeDrain(payload []byte, d *Drain) error {
	if len(payload) != drainSize {
		return fmt.Errorf("%w: drain %d bytes", ErrShort, len(payload))
	}
	d.SessionID = binary.BigEndian.Uint64(payload)
	d.LastSeq = binary.BigEndian.Uint64(payload[8:])
	return nil
}

// DecodeError parses an Error payload. e.Msg aliases the payload.
//
//lint:hotpath
func DecodeError(payload []byte, e *ErrorFrame) error {
	if len(payload) < errorFixed {
		return fmt.Errorf("%w: error %d bytes", ErrShort, len(payload))
	}
	e.Code = ErrorCode(binary.BigEndian.Uint16(payload))
	e.SessionID = binary.BigEndian.Uint64(payload[2:])
	n := int(binary.BigEndian.Uint16(payload[10:]))
	if len(payload) != errorFixed+n {
		return fmt.Errorf("%w: error msg length %d in %d-byte payload", ErrShort, n, len(payload))
	}
	e.Msg = payload[errorFixed:]
	return nil
}

// DecodeSnapshot parses a Snapshot payload and verifies the state
// blob's inner CRC; it is the one decoder of a session's state, for
// Snapshot and Restore frames alike. s.Spec and s.State alias the
// payload.
//
//lint:hotpath
func DecodeSnapshot(payload []byte, s *Snapshot) error {
	if len(payload) < snapshotFixed {
		return fmt.Errorf("%w: snapshot %d bytes", ErrShort, len(payload))
	}
	if len(payload) > MaxSnapshotPayload {
		return fmt.Errorf("%w: snapshot %d bytes", ErrTooLarge, len(payload))
	}
	s.SessionID = binary.BigEndian.Uint64(payload)
	s.LastSeq = binary.BigEndian.Uint64(payload[8:])
	s.Processed = binary.BigEndian.Uint64(payload[16:])
	s.Dropped = binary.BigEndian.Uint64(payload[24:])
	specLen := int(binary.BigEndian.Uint16(payload[32:]))
	stateLen := int(binary.BigEndian.Uint32(payload[34:]))
	stateCRC := binary.BigEndian.Uint32(payload[38:])
	if len(payload) != snapshotFixed+specLen+stateLen {
		return fmt.Errorf("%w: snapshot spec %d + state %d in %d-byte payload", ErrShort, specLen, stateLen, len(payload))
	}
	s.Spec = payload[snapshotFixed : snapshotFixed+specLen]
	s.State = payload[snapshotFixed+specLen:]
	if crc32.ChecksumIEEE(s.State) != stateCRC {
		return fmt.Errorf("%w: snapshot state checksum", ErrBadCRC)
	}
	return nil
}

// DecodeRestore parses a Restore payload: it returns the granularity
// prefix and decodes the rest into s with DecodeSnapshot.
//
//lint:hotpath
func DecodeRestore(payload []byte, s *Snapshot) (granularityUops uint64, err error) {
	if len(payload) < restorePrefix {
		return 0, fmt.Errorf("%w: restore %d bytes", ErrShort, len(payload))
	}
	return binary.BigEndian.Uint64(payload), DecodeSnapshot(payload[restorePrefix:], s)
}

// DecodeBatch parses a Batch payload's envelope, returning the packed
// element kind (KindSample or KindPrediction), the record count, and
// the raw records region, which aliases the payload. Record i spans
// records[i*size : (i+1)*size] (size per SampleRecordSize /
// PredictionRecordSize) and decodes with DecodeSample /
// DecodePrediction; the exact-length slices satisfy their strict
// length checks.
//
//lint:hotpath
func DecodeBatch(payload []byte) (elem FrameKind, n int, records []byte, err error) {
	if len(payload) < batchFixed {
		return KindInvalid, 0, nil, fmt.Errorf("%w: batch %d bytes", ErrShort, len(payload))
	}
	if payload[0] != BatchVersion1 {
		return KindInvalid, 0, nil, fmt.Errorf("%w: batch format %d", ErrBadVersion, payload[0])
	}
	elem = FrameKind(payload[1])
	n = int(binary.BigEndian.Uint16(payload[2:]))
	var size int
	switch elem {
	case KindSample:
		size = SampleRecordSize
	case KindPrediction:
		size = PredictionRecordSize
	default:
		return KindInvalid, 0, nil, fmt.Errorf("%w: batch of %v records", ErrBadKind, elem)
	}
	if n == 0 || len(payload) != batchFixed+n*size {
		return KindInvalid, 0, nil, fmt.Errorf("%w: batch of %d %v records in %d-byte payload",
			ErrShort, n, elem, len(payload))
	}
	return elem, n, payload[batchFixed:], nil
}

// DecodeRollup parses a Rollup payload into r without allocating.
//
//lint:hotpath
func DecodeRollup(payload []byte, r *Rollup) error {
	if len(payload) != rollupSize {
		return fmt.Errorf("%w: rollup %d bytes", ErrShort, len(payload))
	}
	r.NodeID = binary.BigEndian.Uint64(payload)
	r.Shard = binary.BigEndian.Uint32(payload[8:])
	r.BucketStart = binary.BigEndian.Uint64(payload[12:])
	r.BucketLenNs = binary.BigEndian.Uint64(payload[20:])
	r.Starts = binary.BigEndian.Uint64(payload[28:])
	r.Shed = binary.BigEndian.Uint64(payload[36:])
	r.LatSumNs = binary.BigEndian.Uint64(payload[44:])
	off := 52
	for i := range r.Samples {
		r.Samples[i] = binary.BigEndian.Uint64(payload[off:])
		off += 8
	}
	for i := range r.Hits {
		r.Hits[i] = binary.BigEndian.Uint64(payload[off:])
		off += 8
	}
	for i := range r.Misses {
		r.Misses[i] = binary.BigEndian.Uint64(payload[off:])
		off += 8
	}
	for i := range r.LatCounts {
		r.LatCounts[i] = binary.BigEndian.Uint64(payload[off:])
		off += 8
	}
	for i := range r.Top {
		r.Top[i].SessionID = binary.BigEndian.Uint64(payload[off:])
		r.Top[i].Samples = binary.BigEndian.Uint64(payload[off+8:])
		off += 16
	}
	return nil
}

// --- streaming decoder ---------------------------------------------

// readChunk is the most a Decoder asks its transport for in one Read
// when it needs more bytes (more when a single frame needs more): a
// stream of batch frames is read a chunk at a time, not a header and a
// body per frame.
const readChunk = 16 << 10

// Decoder reads frames off a stream. It reads ahead: each Read asks
// the transport for a whole chunk, and frames are parsed in place in
// the decoder's own buffer, which is reused across frames and grown
// only when the unparsed bytes plus a chunk (or one large frame) do
// not fit, so steady-state decoding allocates nothing and an
// unbuffered transport such as a net.Conn needs no wrapping. The
// payload returned by Next is valid only until the following Next
// call.
type Decoder struct {
	r   io.Reader
	buf []byte
	// buf[off:end] holds the bytes read but not yet consumed.
	off, end int
	// err is a transport error that arrived with bytes still to
	// decode; fill returns it once those bytes run out.
	err error
}

// NewDecoder wraps r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: r}
}

// fill reads until at least need bytes are buffered, asking the
// transport for at least a chunk per Read, and returns the transport's
// error when it ends the stream short of need.
func (d *Decoder) fill(need int) error {
	if d.off == d.end {
		d.off, d.end = 0, 0
	}
	for d.end-d.off < need {
		if d.err != nil {
			err := d.err
			d.err = nil
			return err
		}
		want := max(readChunk, need-(d.end-d.off))
		if len(d.buf)-d.end < want {
			n := copy(d.buf, d.buf[d.off:d.end])
			d.off, d.end = 0, n
			if len(d.buf)-n < want {
				// Room for twice the unparsed bytes, so growth is rare.
				buf := make([]byte, 2*n+want)
				copy(buf, d.buf[:n])
				d.buf = buf
			}
		}
		n, err := d.r.Read(d.buf[d.end : d.end+want])
		d.end += n
		d.err = err
	}
	return nil
}

// Next reads one frame and returns its kind and payload. Framing
// failures return an error wrapping ErrBadFrame; transport failures
// return the underlying read error (io.EOF at a clean frame boundary).
func (d *Decoder) Next() (FrameKind, []byte, error) {
	if err := d.fill(HeaderSize); err != nil {
		if d.end > d.off && err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return KindInvalid, nil, fmt.Errorf("%w: truncated header: %v", ErrBadFrame, err)
		}
		return KindInvalid, nil, err
	}
	kind, n, err := DecodeHeader(d.buf[d.off : d.off+HeaderSize])
	if err != nil {
		return KindInvalid, nil, err
	}
	total := HeaderSize + n + TrailerSize
	if err := d.fill(total); err != nil {
		if d.end-d.off > HeaderSize && err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return KindInvalid, nil, fmt.Errorf("%w: truncated frame: %v", ErrBadFrame, err)
	}
	frame := d.buf[d.off : d.off+total]
	d.off += total
	body := frame[:HeaderSize+n]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(frame[HeaderSize+n:]) {
		return KindInvalid, nil, ErrBadCRC
	}
	return kind, body[HeaderSize:], nil
}
