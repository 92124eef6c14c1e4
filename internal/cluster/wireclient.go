package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster/wire"
	"repro/internal/obs"
)

// maxIdleWireConns bounds the per-shard idle connection pool. Beyond
// it, finished connections are closed instead of parked — enough to
// cover a busy shard's in-flight slots without hoarding sockets.
const maxIdleWireConns = 16

// handshakeTimeout caps a connection's dial plus upgrade handshake; a
// caller's earlier deadline cuts it shorter.
const handshakeTimeout = 5 * time.Second

// wireConn is one persistent upgraded connection to a shard. A
// connection serves one request at a time (concurrency comes from
// pooling connections), so its reader, writer and stream counter need
// no locking.
type wireConn struct {
	conn   net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	r      *wire.Reader
	w      *wire.Writer
	stream uint32
}

// shardWire is a shard's parked idle connections. It has its own lock —
// wire checkouts must not contend with the breaker path.
type shardWire struct {
	mu     sync.Mutex
	idle   []*wireConn
	closed bool // the shard left the pool; park nothing, close everything
}

// dialWire opens a TCP connection to the shard and upgrades it to
// rp-wire/2. Anything but a clean 101 naming the protocol is an
// ordinary transient failure, which the pool's breaker and failover
// handle like any other. The handshake ends by the caller's deadline
// (capped at handshakeTimeout), and canceling ctx closes the
// connection under a blocked read.
func dialWire(ctx context.Context, addr string) (_ *wireConn, err error) {
	u, err := url.Parse(addr)
	if err != nil || u.Host == "" {
		return nil, &permanentError{fmt.Errorf("cluster: bad shard address %q", addr)}
	}
	deadline := time.Now().Add(handshakeTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	dialer := net.Dialer{Deadline: deadline, KeepAlive: 15 * time.Second}
	conn, err := dialer.DialContext(ctx, "tcp", u.Host)
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(deadline)
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer func() {
		if !stop() && err == nil {
			err = ctx.Err() // canceled just as the handshake finished
		}
		if err == nil {
			return
		}
		conn.Close()
		if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
			<-ctx.Done() // the conn deadline was the caller's: report it as such
		}
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
		}
	}()
	req, err := http.NewRequest(http.MethodGet, addr+"/v1/wire", nil)
	if err != nil {
		return nil, &permanentError{err}
	}
	req.Header.Set("Upgrade", wire.ProtocolName)
	req.Header.Set("Connection", "Upgrade")
	if err := req.Write(conn); err != nil {
		return nil, err
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, req)
	if err != nil {
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusSwitchingProtocols ||
		!strings.EqualFold(resp.Header.Get("Upgrade"), wire.ProtocolName) {
		return nil, fmt.Errorf("cluster: %s refused the %s upgrade: status %d", addr, wire.ProtocolName, resp.StatusCode)
	}
	conn.SetDeadline(time.Time{})
	bw := bufio.NewWriter(conn)
	return &wireConn{conn: conn, br: br, bw: bw, r: wire.NewReader(br), w: wire.NewWriter(bw)}, nil
}

// wireCheckout hands out an idle connection or dials a fresh one.
// reused tells the caller whether a pre-response failure may just be a
// stale keep-alive (retry on a fresh dial) or a real shard problem.
func (p *Pool) wireCheckout(ctx context.Context, s *shard) (wc *wireConn, reused bool, err error) {
	s.wire.mu.Lock()
	if !s.wire.closed {
		if n := len(s.wire.idle); n > 0 {
			wc = s.wire.idle[n-1]
			s.wire.idle = s.wire.idle[:n-1]
			s.wire.mu.Unlock()
			return wc, true, nil
		}
	}
	s.wire.mu.Unlock()
	wc, err = dialWire(ctx, s.addr)
	if err != nil {
		return nil, false, err
	}
	p.wireConns.Add(1)
	return wc, false, nil
}

// wireCheckin parks a healthy connection for reuse.
func (s *shard) wireCheckin(wc *wireConn) {
	s.wire.mu.Lock()
	defer s.wire.mu.Unlock()
	if s.wire.closed || len(s.wire.idle) >= maxIdleWireConns {
		wc.conn.Close()
		return
	}
	s.wire.idle = append(s.wire.idle, wc)
}

// wireClose tears down the shard's wire state for good (it left the
// pool, or the pool is closing).
func (s *shard) wireClose() {
	s.wire.mu.Lock()
	s.wire.closed = true
	idle := s.wire.idle
	s.wire.idle = nil
	s.wire.mu.Unlock()
	for _, wc := range idle {
		wc.conn.Close()
	}
}

// wireDo runs one request/response exchange over the shard's wire
// transport, calling onRow per row frame. A reused connection that
// dies before yielding a single frame is presumed a stale keep-alive
// and retried; a worker restart can leave a whole pool of stale parked
// connections (up to maxIdleWireConns), and each failed attempt
// consumes one, so the loop drains them and terminates at the first
// fresh dial — whose failure is a real shard problem and surfaces to
// the pool's normal failover machinery.
func (p *Pool) wireDo(ctx context.Context, s *shard, typ byte, payload []byte, onRow func(index int, errMsg string, body []byte) error) error {
	for {
		wc, reused, err := p.wireCheckout(ctx, s)
		if err != nil {
			return err
		}
		retryable, err := p.wireExchange(ctx, s, wc, typ, payload, onRow)
		if err == nil {
			return nil
		}
		if reused && retryable && ctx.Err() == nil {
			continue
		}
		return err
	}
}

// wireExchange is one framed request on one connection. retryable is
// true only when the connection failed before producing any frame —
// the one case where the request provably never started.
func (p *Pool) wireExchange(ctx context.Context, s *shard, wc *wireConn, typ byte, payload []byte, onRow func(int, string, []byte) error) (retryable bool, err error) {
	// Canceling ctx closes the connection, unblocking any read in
	// flight; a connection the cancel reached is never parked again.
	stop := context.AfterFunc(ctx, func() { wc.conn.Close() })
	healthy := false
	defer func() {
		if stop() && healthy {
			s.wireCheckin(wc)
		} else {
			wc.conn.Close()
		}
	}()
	p.wireReqs.Add(1)
	span := obs.StartLeaf(ctx, "cluster.wire_exchange")
	span.SetAttr("shard", s.addr)
	defer func() { span.SetError(err); span.End() }()
	// The request frame carries the trace context — this is what keeps
	// the "one trace ID end-to-end" contract on the binary transport.
	var flags byte
	if trace := obs.Trace(ctx); trace != "" {
		framed := wire.AppendTraceContext(make([]byte, 0, len(payload)+len(trace)+16), trace, obs.ParentSpan(ctx))
		payload = append(framed, payload...)
		flags = wire.FlagTraced
	}
	start := time.Now()
	wc.stream++
	if err := wc.w.WriteFrame(typ, flags, wc.stream, payload); err != nil {
		return true, err
	}
	if err := wc.bw.Flush(); err != nil {
		return true, err
	}
	gotFrame := false
	for {
		f, err := wc.r.Next()
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return false, cerr
			}
			return !gotFrame, fmt.Errorf("cluster: %s wire: %w", s.addr, err)
		}
		gotFrame = true
		if f.Stream != wc.stream {
			return false, fmt.Errorf("cluster: %s wire: frame for stream %d, want %d", s.addr, f.Stream, wc.stream)
		}
		switch f.Type {
		case wire.FrameRow:
			idx, msg, body, err := wire.ParseRow(f.Payload)
			if err != nil {
				return false, fmt.Errorf("cluster: %s wire: %w", s.addr, err)
			}
			p.wireRows.Add(1)
			if err := onRow(idx, msg, body); err != nil {
				return false, err
			}
		case wire.FrameDone:
			if _, _, err := wire.ParseDone(f.Payload); err != nil {
				return false, fmt.Errorf("cluster: %s wire: %w", s.addr, err)
			}
			p.importDoneSpans(ctx, f.Payload)
			// The full exchange on a persistent connection is the wire
			// path's analogue of the HTTP round-trip.
			p.shardRTT.Observe(s.addr, time.Since(start))
			healthy = true
			return false, nil
		case wire.FrameError:
			// Frame boundaries are intact — the request failed, the
			// connection did not.
			healthy = true
			p.shardRTT.Observe(s.addr, time.Since(start))
			ferr := fmt.Errorf("cluster: %s wire: %s", s.addr, f.Payload)
			if f.Flags&wire.FlagPermanent != 0 {
				return false, &permanentError{ferr}
			}
			return false, ferr
		default:
			return false, fmt.Errorf("cluster: %s wire: unexpected frame type 0x%02x", s.addr, f.Type)
		}
	}
}

// importDoneSpans copies the worker's spans (the span block of a
// FrameDone payload) into this process's flight recorder, so the
// coordinator holds the whole cross-process trace. Malformed blocks
// are dropped, never fatal — spans are diagnostics, not data.
func (p *Pool) importDoneSpans(ctx context.Context, done []byte) {
	store := obs.SpansFrom(ctx)
	if store == nil {
		return
	}
	block, err := wire.ParseDoneSpans(done)
	if err != nil || block == nil {
		return
	}
	var spans []obs.Span
	if err := json.Unmarshal(block, &spans); err != nil {
		return
	}
	for _, sp := range spans {
		store.AddSpan(sp)
	}
}
