package service

import (
	"log/slog"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// instrument wraps the API mux with the request-observability layer:
//
//   - every request gets a trace ID — the client's X-RP-Trace-Id when it
//     sent a well-formed one (so a coordinator's ID survives into its
//     shards), a fresh one otherwise — carried in the request context
//     and echoed on the response header before any handler runs, which
//     is what lets writeError embed it in error bodies;
//   - when a SpanStore is configured, sampled requests run under a root
//     "http.request" span (child spans across the engine, router and
//     wire transport hang off it);
//   - requests slower than HandlerOptions.SlowRequest are logged at warn
//     with method, path, status and duration, and their traces are
//     retained in the flight recorder past ring pressure — an unsampled
//     slow request still gets a synthetic root span, so every slow
//     request is inspectable via /v1/traces/{id};
//   - at debug level every request is logged the same way.
func (a *api) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := obs.SanitizeTraceID(r.Header.Get(obs.TraceHeader))
		if id == "" {
			id = obs.NewTraceID()
		}
		ctx := obs.WithTrace(r.Context(), id)
		w.Header().Set(obs.TraceHeader, id)

		sampled := a.spans != nil && sampleTrace(a.traceSample)
		var root *obs.Span
		if sampled {
			ctx = obs.WithSpans(ctx, a.spans)
			ctx, root = obs.StartSpan(ctx, "http.request")
			root.SetAttr("method", r.Method)
			root.SetAttr("path", r.URL.Path)
		}
		r = r.WithContext(ctx)

		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		d := time.Since(start)

		// The mux recorded its matched pattern on the request during
		// routing, so the RED metrics see the coarse route, never the
		// raw path. Monitoring routes are RED-counted but exempt from
		// SLO accounting (see sloExempt).
		route := routePattern(r)
		a.red.observe(route, sw.status, d)
		if a.slo != nil && !sloExempt(route) {
			a.slo.Observe(sw.status, d)
		}

		if root != nil {
			root.SetAttr("status", strconv.Itoa(sw.status))
			root.End()
		}
		slow := a.slowReq > 0 && d >= a.slowReq
		if slow && a.spans != nil {
			if !sampled {
				// Sampling skipped this request, but slow requests must stay
				// inspectable: give the trace a synthetic root after the fact.
				a.spans.Record(obs.Span{
					TraceID:  id,
					Name:     "http.request",
					Start:    start,
					Duration: d,
				})
			}
			a.spans.Retain(id)
		}
		switch {
		case slow:
			a.log.LogAttrs(ctx, slog.LevelWarn, "slow request", requestAttrs(r, sw.status, d)...)
		case a.log.Enabled(ctx, slog.LevelDebug):
			a.log.LogAttrs(ctx, slog.LevelDebug, "request", requestAttrs(r, sw.status, d)...)
		}
	})
}

// sampleTrace decides whether a request records spans: rate ≥ 1 is
// always, ≤ 0 never, otherwise a Bernoulli draw per request.
func sampleTrace(rate float64) bool {
	if rate >= 1 {
		return true
	}
	if rate <= 0 {
		return false
	}
	return rand.Float64() < rate
}

func requestAttrs(r *http.Request, status int, d time.Duration) []slog.Attr {
	return []slog.Attr{
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", status),
		slog.Float64("duration_ms", float64(d)/float64(time.Millisecond)),
	}
}

// statusWriter records the response status for the request log while
// forwarding Flush (the NDJSON streaming endpoints depend on it) and
// exposing the wrapped writer via Unwrap for http.ResponseController.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (s *statusWriter) WriteHeader(code int) {
	if !s.wrote {
		s.status, s.wrote = code, true
	}
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusWriter) Write(b []byte) (int, error) {
	s.wrote = true
	return s.ResponseWriter.Write(b)
}

func (s *statusWriter) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *statusWriter) Unwrap() http.ResponseWriter { return s.ResponseWriter }
