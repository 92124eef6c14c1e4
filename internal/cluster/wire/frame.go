// Package wire is the cluster's binary streaming transport: a
// length-prefixed framing protocol spoken over persistent connections
// between a coordinator and its worker shards. Every remote solve,
// batch chunk and campaign row rides it.
//
// A connection starts as a plain HTTP/1.1 upgrade (GET /v1/wire with
// "Upgrade: rp-wire/2"); after the 101 both ends exchange frames:
//
//	type(1) | flags(1) | stream(4, LE) | length(4, LE) | payload
//
// The client sends one request frame (FrameSolve, FrameBatch or
// FrameCampaign) at a time per connection and reads response frames for
// the same stream ID until FrameDone or FrameError; concurrency comes
// from pooling connections, not from interleaving streams. Row frames carry the
// chunk-local index and error text in a compact binary header and the
// result body as the worker's canonical JSON encoding — the coordinator
// re-indexes on the header alone and relays the body bytes untouched.
//
// Every decode path is hostile-input safe: truncated frames, oversized
// lengths and garbage bytes return errors, never panic (see the fuzz
// tests).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// ProtocolName is the Upgrade token. Its revision 2 carries trace
// context: request frames may carry FlagTraced (a trace/parent-span
// prefix before the request payload) and FrameDone may carry the
// worker's spans after its two counters. It is the only revision any
// daemon speaks; a server refuses every other token with a 426.
const ProtocolName = "rp-wire/2"

// Frame types. Requests flow coordinator→worker, the rest worker→
// coordinator.
const (
	// FrameBatch carries a binary-encoded batch chunk request (see
	// AppendBatchRequest).
	FrameBatch byte = 0x01
	// FrameCampaign carries a JSON /v1/campaign request body. Campaign
	// rows are seconds of compute each, so their config keeps the JSON
	// encoding — the win here is the persistent connection, not the
	// payload bytes.
	FrameCampaign byte = 0x02
	// FrameSolve carries a JSON /v1/solve request body; the answer is
	// one FrameRow holding the JSON response, then FrameDone. Like
	// campaign configs, a single solve keeps the JSON encoding.
	FrameSolve byte = 0x03
	// FrameRow is one result row: binary header (chunk-local index,
	// error text) plus the row's JSON body (see AppendRow).
	FrameRow byte = 0x10
	// FrameDone terminates a successful response stream (see AppendDone).
	FrameDone byte = 0x11
	// FrameError terminates a failed request; the payload is the error
	// text. FlagPermanent marks failures that would repeat identically
	// on another shard (bad request, unknown solver).
	FrameError byte = 0x12
)

// FlagPermanent on FrameError marks a deterministic, don't-fail-over
// failure — the binary analogue of an HTTP 4xx.
const FlagPermanent byte = 0x01

// FlagTraced on a request frame marks a trace-context prefix ahead of
// the request payload: the trace ID and the coordinator's active span.
// The prefix lives at the frame layer — not inside the batch codec,
// whose decoder rejects trailing bytes by design — so the request
// encodings themselves are the same traced or not.
const FlagTraced byte = 0x02

// MaxFrame bounds a frame payload, mirroring the HTTP layer's 64 MiB
// request cap. A length beyond it is a protocol error, not an
// allocation.
const MaxFrame = 64 << 20

const headerLen = 10

// Frame is one decoded frame.
type Frame struct {
	Type    byte
	Flags   byte
	Stream  uint32
	Payload []byte
}

// Writer frames payloads onto w. Not safe for concurrent use.
type Writer struct {
	w   io.Writer
	hdr [headerLen]byte
}

// NewWriter returns a Writer over w (wrap w in a bufio.Writer and flush
// per row for streaming).
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// WriteFrame emits one frame.
func (w *Writer) WriteFrame(typ, flags byte, stream uint32, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: frame payload %d bytes exceeds the %d limit", len(payload), MaxFrame)
	}
	w.hdr[0], w.hdr[1] = typ, flags
	binary.LittleEndian.PutUint32(w.hdr[2:6], stream)
	binary.LittleEndian.PutUint32(w.hdr[6:10], uint32(len(payload)))
	if _, err := w.w.Write(w.hdr[:]); err != nil {
		return err
	}
	_, err := w.w.Write(payload)
	return err
}

// Reader decodes frames from r. Not safe for concurrent use.
type Reader struct {
	r   io.Reader
	hdr [headerLen]byte
}

// NewReader returns a Reader over r (wrap r in a bufio.Reader).
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Next reads one frame. A clean close between frames returns io.EOF; a
// close mid-frame returns io.ErrUnexpectedEOF. The payload is freshly
// allocated per frame, so callers may retain it (the coordinator's
// reorder buffer does).
func (r *Reader) Next() (Frame, error) {
	if _, err := io.ReadFull(r.r, r.hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return Frame{}, io.EOF
		}
		return Frame{}, fmt.Errorf("wire: short frame header: %w", err)
	}
	f := Frame{
		Type:   r.hdr[0],
		Flags:  r.hdr[1],
		Stream: binary.LittleEndian.Uint32(r.hdr[2:6]),
	}
	n := binary.LittleEndian.Uint32(r.hdr[6:10])
	if n > MaxFrame {
		return Frame{}, fmt.Errorf("wire: frame payload %d bytes exceeds the %d limit", n, MaxFrame)
	}
	if n > 0 {
		f.Payload = make([]byte, n)
		if _, err := io.ReadFull(r.r, f.Payload); err != nil {
			return Frame{}, fmt.Errorf("wire: truncated frame payload: %w", err)
		}
	}
	return f, nil
}

// AppendRow appends a FrameRow payload to buf: uvarint chunk-local
// index, uvarint-length-prefixed error text, then the row body (the
// worker's JSON encoding of the result; empty for error rows).
func AppendRow(buf []byte, index int, errMsg string, body []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(index))
	buf = binary.AppendUvarint(buf, uint64(len(errMsg)))
	buf = append(buf, errMsg...)
	return append(buf, body...)
}

// ParseRow decodes a FrameRow payload. body aliases p.
func ParseRow(p []byte) (index int, errMsg string, body []byte, err error) {
	idx, n := binary.Uvarint(p)
	if n <= 0 || idx > 1<<31 {
		return 0, "", nil, errors.New("wire: bad row index")
	}
	p = p[n:]
	elen, n := binary.Uvarint(p)
	if n <= 0 || elen > uint64(len(p)-n) {
		return 0, "", nil, errors.New("wire: bad row error length")
	}
	p = p[n:]
	return int(idx), string(p[:elen]), p[elen:], nil
}

// AppendDone appends a FrameDone payload: uvarint items, uvarint
// failed.
func AppendDone(buf []byte, items, failed int) []byte {
	buf = binary.AppendUvarint(buf, uint64(items))
	return binary.AppendUvarint(buf, uint64(failed))
}

// ParseDone decodes a FrameDone payload. Trailing bytes (the span
// block) are deliberately ignored — use ParseDoneSpans to read
// them.
func ParseDone(p []byte) (items, failed int, err error) {
	i, n := binary.Uvarint(p)
	if n <= 0 || i > 1<<31 {
		return 0, 0, errors.New("wire: bad done items")
	}
	p = p[n:]
	f, n := binary.Uvarint(p)
	if n <= 0 || f > 1<<31 {
		return 0, 0, errors.New("wire: bad done failed count")
	}
	return int(i), int(f), nil
}

// maxTraceLen bounds the trace ID in a FlagTraced prefix, mirroring the
// HTTP layer's SanitizeTraceID cap.
const maxTraceLen = 64

// AppendTraceContext appends a FlagTraced request prefix to buf:
// uvarint-length-prefixed trace ID, then uvarint parent span ID. The
// request payload follows the prefix unchanged.
func AppendTraceContext(buf []byte, traceID string, parentSpan uint64) []byte {
	if len(traceID) > maxTraceLen {
		traceID = traceID[:maxTraceLen]
	}
	buf = binary.AppendUvarint(buf, uint64(len(traceID)))
	buf = append(buf, traceID...)
	return binary.AppendUvarint(buf, parentSpan)
}

// ParseTraceContext decodes a FlagTraced prefix and returns the rest of
// the payload (aliasing p).
func ParseTraceContext(p []byte) (traceID string, parentSpan uint64, rest []byte, err error) {
	tlen, n := binary.Uvarint(p)
	if n <= 0 || tlen > maxTraceLen || tlen > uint64(len(p)-n) {
		return "", 0, nil, errors.New("wire: bad trace context")
	}
	p = p[n:]
	traceID = string(p[:tlen])
	p = p[tlen:]
	parentSpan, n = binary.Uvarint(p)
	if n <= 0 {
		return "", 0, nil, errors.New("wire: bad trace parent span")
	}
	return traceID, parentSpan, p[n:], nil
}

// maxDoneSpans bounds the span block a FrameDone may carry — a defense
// bound well above the worker's own per-request collection cap.
const maxDoneSpans = 4 << 20

// AppendDoneSpans appends a FrameDone payload carrying the worker's
// spans for the request: the two AppendDone counters, then a
// uvarint-length-prefixed JSON array of spans. ParseDone skips the
// block untouched; ParseDoneSpans reads it.
func AppendDoneSpans(buf []byte, items, failed int, spansJSON []byte) []byte {
	buf = AppendDone(buf, items, failed)
	if len(spansJSON) == 0 || len(spansJSON) > maxDoneSpans {
		return buf
	}
	buf = binary.AppendUvarint(buf, uint64(len(spansJSON)))
	return append(buf, spansJSON...)
}

// ParseDoneSpans returns the span block of a FrameDone payload, nil
// when the peer sent none (an untraced request, or spans disabled).
// The bytes alias p.
func ParseDoneSpans(p []byte) ([]byte, error) {
	// Skip the two counters ParseDone validated.
	for i := 0; i < 2; i++ {
		_, n := binary.Uvarint(p)
		if n <= 0 {
			return nil, errors.New("wire: bad done payload")
		}
		p = p[n:]
	}
	if len(p) == 0 {
		return nil, nil
	}
	slen, n := binary.Uvarint(p)
	if n <= 0 || slen == 0 || slen > maxDoneSpans || slen > uint64(len(p)-n) {
		return nil, errors.New("wire: bad done span block")
	}
	return p[n : n+int(slen)], nil
}
