package wire

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/service"
)

// Server is the worker-side end of the wire transport: an http.Handler
// for GET /v1/wire that hijacks the connection after a protocol upgrade
// and then serves remote solves, batch chunks and campaign rows as
// frames over it.
// Mount it via service.HandlerOptions.Wire.
type Server struct {
	e   *service.Engine
	log *slog.Logger

	// Spans, when set, is the worker's flight recorder: traced requests
	// record their server-side spans here and ship a copy back to the
	// coordinator inside FrameDone.
	Spans *obs.SpanStore

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// NewServer returns a wire server over the engine. logger may be nil.
func NewServer(e *service.Engine, logger *slog.Logger) *Server {
	if logger == nil {
		logger = obs.NopLogger()
	}
	return &Server{e: e, log: logger, conns: map[net.Conn]struct{}{}}
}

// Close tears down every live wire connection. In-flight solves observe
// their canceled contexts and stop; the engine's own Close drains what
// remains. New upgrades are refused afterwards.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

func (s *Server) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// ServeHTTP negotiates the upgrade: a request offering rp-wire/2 is
// switched to the frame protocol; anything else answers a plain HTTP
// 426 naming rp-wire/2. That is the whole handshake.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.EqualFold(r.Header.Get("Upgrade"), ProtocolName) ||
		!headerContainsToken(r.Header, "Connection", "upgrade") {
		w.Header().Set("Upgrade", ProtocolName)
		http.Error(w, "this endpoint speaks "+ProtocolName+" only", http.StatusUpgradeRequired)
		return
	}
	// ResponseController follows Unwrap through middleware wrappers (the
	// tracing statusWriter is not itself a Hijacker).
	conn, rw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if !s.track(conn) {
		conn.Close()
		return
	}
	defer s.untrack(conn)
	defer conn.Close()
	conn.SetDeadline(time.Time{}) // the server's read timeouts no longer apply

	rw.Writer.WriteString("HTTP/1.1 101 Switching Protocols\r\nUpgrade: " +
		ProtocolName + "\r\nConnection: Upgrade\r\n\r\n")
	if err := rw.Writer.Flush(); err != nil {
		return
	}
	s.log.Debug("wire session open", "remote", conn.RemoteAddr().String())
	err = s.session(rw.Reader, conn)
	if err != nil && !errors.Is(err, io.EOF) {
		s.log.Debug("wire session closed", "remote", conn.RemoteAddr().String(), "error", err)
	}
}

// session serves one connection: request frames in, row streams out,
// until the peer closes or a protocol error poisons the framing.
func (s *Server) session(br *bufio.Reader, conn net.Conn) error {
	r := NewReader(br)
	bw := bufio.NewWriter(conn)
	w := NewWriter(bw)
	for {
		f, err := r.Next()
		if err != nil {
			return err
		}
		switch f.Type {
		case FrameSolve:
			err = s.serveSolve(w, bw, f)
		case FrameBatch:
			err = s.serveBatch(w, bw, f)
		case FrameCampaign:
			err = s.serveCampaign(w, bw, f)
		default:
			return errors.New("wire: unexpected frame type")
		}
		if err != nil {
			return err
		}
	}
}

// fail reports a request-level failure and keeps the connection alive —
// frame boundaries are intact, only this stream is over.
func (w *Writer) fail(bw *bufio.Writer, stream uint32, permanent bool, err error) error {
	var flags byte
	if permanent {
		flags = FlagPermanent
	}
	if werr := w.WriteFrame(FrameError, flags, stream, []byte(err.Error())); werr != nil {
		return werr
	}
	return bw.Flush()
}

// done terminates a successful stream, shipping the request's spans
// back when it was traced.
func (w *Writer) done(bw *bufio.Writer, stream uint32, items, failed int, coll *obs.Collector) error {
	if err := w.WriteFrame(FrameDone, 0, stream, AppendDoneSpans(nil, items, failed, doneSpans(coll))); err != nil {
		return err
	}
	return bw.Flush()
}

// requestContext builds one request's context: cancelation plus, on a
// traced frame, the caller's trace identity and a span collector so
// the request's spans can ride back in FrameDone. The returned payload
// is the frame payload with any trace prefix stripped.
func (s *Server) requestContext(f Frame) (ctx context.Context, cancel context.CancelFunc, payload []byte, coll *obs.Collector, err error) {
	ctx, cancel = context.WithCancel(context.Background())
	payload = f.Payload
	if f.Flags&FlagTraced == 0 {
		return ctx, cancel, payload, nil, nil
	}
	traceID, parentSpan, rest, perr := ParseTraceContext(f.Payload)
	if perr != nil {
		return ctx, cancel, nil, nil, perr
	}
	payload = rest
	if id := obs.SanitizeTraceID(traceID); id != "" {
		ctx = obs.WithTrace(ctx, id)
	}
	ctx = obs.WithSpans(ctx, s.Spans)
	// A zero parent span means the coordinator is not assembling a tree
	// (tracing sampled out there); spans stay in the local recorder and
	// FrameDone carries none back.
	if parentSpan != 0 {
		coll = &obs.Collector{}
		ctx = obs.WithCollector(ctx, coll)
		ctx = obs.WithParentSpan(ctx, parentSpan)
	}
	return ctx, cancel, payload, coll, nil
}

// doneSpans renders the collector's spans for the FrameDone payload,
// nil when the request was untraced.
func doneSpans(coll *obs.Collector) []byte {
	if coll == nil {
		return nil
	}
	data, err := json.Marshal(coll)
	if err != nil || string(data) == "[]" {
		return nil
	}
	return data
}

// serveSolve answers a FrameSolve with one row holding the /v1/solve
// response JSON. It runs the HTTP handler's own decode/validate/solve
// path, so both surfaces fail the same requests the same way; a 4xx
// outcome is permanent, anything else may fail over.
func (s *Server) serveSolve(w *Writer, bw *bufio.Writer, f Frame) error {
	ctx, cancel, payload, coll, err := s.requestContext(f)
	defer cancel()
	if err != nil {
		return w.fail(bw, f.Stream, true, err)
	}
	ctx, span := obs.StartSpan(ctx, "wire.solve")
	resp, status, err := s.e.SolveJSON(ctx, bytes.NewReader(payload), "")
	var body []byte
	if err == nil {
		body, err = json.Marshal(resp)
	}
	span.SetError(err)
	span.End()
	if err != nil {
		return w.fail(bw, f.Stream, status >= 400 && status < 500, err)
	}
	if err := w.WriteFrame(FrameRow, 0, f.Stream, AppendRow(nil, 0, "", body)); err != nil {
		return err
	}
	return w.done(bw, f.Stream, 1, 0, coll)
}

func (s *Server) serveBatch(w *Writer, bw *bufio.Writer, f Frame) error {
	ctx, cancel, payload, coll, err := s.requestContext(f)
	defer cancel()
	if err != nil {
		return w.fail(bw, f.Stream, true, err)
	}
	req, err := DecodeBatchRequest(payload)
	if err != nil {
		return w.fail(bw, f.Stream, true, err)
	}
	base, policy, err := req.Build(s.e)
	if err != nil {
		return w.fail(bw, f.Stream, true, err)
	}
	ctx, span := obs.StartSpan(ctx, "wire.batch")
	span.SetAttr("solver", req.Solver)
	span.SetAttrInt("variations", len(req.Variations))

	var rowBuf []byte
	failed, werr := 0, error(nil)
	err = s.e.SolveBatch(ctx, service.BatchRequest{
		Base:       base,
		Solver:     req.Solver,
		Policy:     policy,
		Options:    req.EngineOptions(),
		Variations: req.Variations,
	}, func(item service.BatchItem) {
		if werr != nil {
			return // the peer is gone; remaining solves are being canceled
		}
		var msg string
		var body []byte
		if item.Err != nil {
			msg = item.Err.Error()
			failed++
		} else {
			body, werr = json.Marshal(item.Response)
			if werr != nil {
				cancel()
				return
			}
		}
		rowBuf = AppendRow(rowBuf[:0], item.Index, msg, body)
		if werr = w.WriteFrame(FrameRow, 0, f.Stream, rowBuf); werr == nil {
			werr = bw.Flush()
		}
		if werr != nil {
			cancel() // stop burning workers on a dead stream
		}
	})
	span.SetError(err)
	span.End()
	if err != nil {
		// SolveBatch-level failures are validation-shaped (Build caught
		// most already); report in-stream like the HTTP handler does.
		return w.fail(bw, f.Stream, true, err)
	}
	if werr != nil {
		return werr
	}
	return w.done(bw, f.Stream, len(req.Variations), failed, coll)
}

func (s *Server) serveCampaign(w *Writer, bw *bufio.Writer, f Frame) error {
	ctx, cancel, payload, coll, err := s.requestContext(f)
	defer cancel()
	if err != nil {
		return w.fail(bw, f.Stream, true, err)
	}
	var req struct {
		Config experiments.Config `json:"config"`
	}
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return w.fail(bw, f.Stream, true, err)
	}
	ctx, span := obs.StartSpan(ctx, "wire.campaign")
	cfg := req.Config
	cfg.Context = ctx

	var rowBuf []byte
	rows, werr := 0, error(nil)
	cfg.Progress = func(row experiments.Row) error {
		body, err := json.Marshal(row)
		if err != nil {
			return err
		}
		rowBuf = AppendRow(rowBuf[:0], rows, "", body)
		rows++
		if werr = w.WriteFrame(FrameRow, 0, f.Stream, rowBuf); werr == nil {
			werr = bw.Flush()
		}
		return werr
	}
	_, err = experiments.Run(cfg)
	span.SetAttrInt("rows", rows)
	span.SetError(err)
	span.End()
	if err != nil {
		if werr != nil {
			return werr // the stream write failed; the conn is poisoned
		}
		// The campaign itself failed (bad config, engine draining):
		// transient unless proven otherwise — another shard may be
		// healthier.
		return w.fail(bw, f.Stream, false, err)
	}
	return w.done(bw, f.Stream, rows, 0, coll)
}

// headerContainsToken reports whether any comma-separated value of the
// header contains the token (case-insensitive) — the lenient Connection
// header match net/http's own upgrade detection uses.
func headerContainsToken(h http.Header, name, token string) bool {
	for _, v := range h.Values(name) {
		for _, part := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(part), token) {
				return true
			}
		}
	}
	return false
}
