package obs

import (
	"context"
	"log/slog"
	"sync"
	"time"
)

// Event is one structured cluster state transition: a shard joining or
// expiring, a circuit opening, a job failing, an alert firing. Events are rare and operationally significant — the
// journal is the "what changed?" companion to the flight recorder's
// "where did the time go?".
type Event struct {
	// Seq is a process-lifetime monotone sequence number; it survives
	// ring wraparound, so gaps reveal evicted history.
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	// Type is a stable machine-readable kind: shard_joined, shard_left,
	// shard_expired, circuit_open, circuit_half_open, circuit_closed,
	// job_failed, alert_fired, alert_resolved.
	Type string `json:"type"`
	Msg  string `json:"msg"`
	// TraceID links the event to the request that triggered it, when
	// one was in flight.
	TraceID string            `json:"trace_id,omitempty"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// DefaultEventCapacity is the default journal size.
const DefaultEventCapacity = 1024

// EventRing is a bounded in-memory journal of cluster events, mirroring
// SpanStore's ring design. Unlike the span hot path, appends take the
// lock unconditionally: events are rare (state transitions, not
// requests) and must not be lossy under momentary contention. Each
// append also lands on the structured logger, so the journal and the
// log stream tell one story.
type EventRing struct {
	mu   sync.Mutex
	ring []Event
	next int // ring write cursor
	n    int // events in ring (≤ len(ring))
	seq  uint64

	// counts holds process-lifetime totals per event type — the ring
	// forgets, rp_cluster_events_total does not.
	counts map[string]uint64

	logger *slog.Logger
}

// NewEventRing returns a journal holding the most recent capacity
// events (DefaultEventCapacity when capacity <= 0). logger may be nil.
func NewEventRing(capacity int, logger *slog.Logger) *EventRing {
	if capacity <= 0 {
		capacity = DefaultEventCapacity
	}
	return &EventRing{
		ring:   make([]Event, capacity),
		counts: make(map[string]uint64),
		logger: logger,
	}
}

// Emit records one event. attrs are alternating key/value pairs (an
// odd trailing key is dropped); the trace ID is taken from ctx when one
// is attached. Safe for a nil receiver, so call sites need no guards.
func (r *EventRing) Emit(ctx context.Context, typ, msg string, attrs ...string) {
	if r == nil {
		return
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ev := Event{Time: time.Now(), Type: typ, Msg: msg, TraceID: Trace(ctx)}
	if len(attrs) >= 2 {
		ev.Attrs = make(map[string]string, len(attrs)/2)
		for i := 0; i+1 < len(attrs); i += 2 {
			ev.Attrs[attrs[i]] = attrs[i+1]
		}
	}
	r.mu.Lock()
	r.seq++
	ev.Seq = r.seq
	r.ring[r.next] = ev
	r.next = (r.next + 1) % len(r.ring)
	if r.n < len(r.ring) {
		r.n++
	}
	r.counts[typ]++
	r.mu.Unlock()
	if r.logger != nil {
		args := make([]any, 0, 6+2*len(ev.Attrs))
		args = append(args, "type", typ, "seq", ev.Seq)
		if ev.TraceID != "" {
			args = append(args, "trace_id", ev.TraceID)
		}
		for k, v := range ev.Attrs {
			args = append(args, k, v)
		}
		r.logger.LogAttrs(ctx, slog.LevelInfo, "cluster event: "+msg, argsToAttrs(args)...)
	}
}

func argsToAttrs(args []any) []slog.Attr {
	attrs := make([]slog.Attr, 0, len(args)/2)
	for i := 0; i+1 < len(args); i += 2 {
		k, _ := args[i].(string)
		attrs = append(attrs, slog.Any(k, args[i+1]))
	}
	return attrs
}

// EventFilter narrows an Events query. The zero value selects
// everything the ring still holds.
type EventFilter struct {
	// Type keeps only events of this exact type ("" keeps all).
	Type string
	// Since keeps only events at or after this instant.
	Since time.Time
	// Limit caps the result to the most recent Limit events (0 = all).
	Limit int
}

// Events returns matching events, oldest first.
func (r *EventRing) Events(f EventFilter) []Event {
	if r == nil {
		return nil
	}
	var out []Event
	r.mu.Lock()
	for i := 0; i < r.n; i++ {
		ev := &r.ring[(r.next-r.n+i+len(r.ring))%len(r.ring)]
		if f.Type != "" && ev.Type != f.Type {
			continue
		}
		if !f.Since.IsZero() && ev.Time.Before(f.Since) {
			continue
		}
		out = append(out, *ev)
	}
	r.mu.Unlock()
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[len(out)-f.Limit:]
	}
	return out
}

// Counts copies the process-lifetime per-type totals — the source of
// rp_cluster_events_total.
func (r *EventRing) Counts() map[string]uint64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make(map[string]uint64, len(r.counts))
	for k, v := range r.counts {
		out[k] = v
	}
	r.mu.Unlock()
	return out
}
