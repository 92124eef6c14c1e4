package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"
	"strconv"
	"sync"
	"time"
)

// maxSpanAttrs bounds a span's attributes. Attributes set beyond it are
// dropped — spans are fixed-size values so the flight recorder's ring
// copies them without allocating.
const maxSpanAttrs = 6

// Attr is one span attribute.
type Attr struct {
	Key   string
	Value string
}

// Span is one timed operation of a trace: a node in the span tree
// identified by (TraceID, ID), parented by Parent (0 for a root). Spans
// are created by StartSpan/StartLeaf and recorded into the context's
// SpanStore by End. The zero Parent/Error/attrs are omitted from the
// JSON form; IDs serialize as 16-hex-character strings.
type Span struct {
	TraceID  string
	ID       uint64
	Parent   uint64
	Name     string
	Start    time.Time
	Duration time.Duration
	// Error is the failure text of a span that ended in an error
	// (SetError); empty for OK spans.
	Error string

	attrs  [maxSpanAttrs]Attr
	nattrs int

	ref spanRef // sinks captured at start; zero for deserialized spans
}

// spanRef is the per-context span state: where ended spans go (the
// process flight recorder and/or a per-request collector) and the
// active span ID new spans parent under. One context value holds all
// three so the hot path pays a single Value lookup.
type spanRef struct {
	store  *SpanStore
	coll   *Collector
	parent uint64
}

type spanRefKey struct{}

func refFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanRefKey{}).(spanRef)
	return ref
}

// WithSpans returns ctx recording ended spans into the store. A nil
// store returns ctx unchanged — span creation stays disabled (and
// free) for that request.
func WithSpans(ctx context.Context, store *SpanStore) context.Context {
	if store == nil {
		return ctx
	}
	ref := refFrom(ctx)
	ref.store = store
	return context.WithValue(ctx, spanRefKey{}, ref)
}

// SpansFrom returns the SpanStore ctx records into, nil when tracing is
// off for this context.
func SpansFrom(ctx context.Context) *SpanStore { return refFrom(ctx).store }

// WithCollector returns ctx additionally delivering every ended span to
// c — the worker side of the wire transport uses it to gather the spans
// of one request for shipping back to the coordinator.
func WithCollector(ctx context.Context, c *Collector) context.Context {
	if c == nil {
		return ctx
	}
	ref := refFrom(ctx)
	ref.coll = c
	return context.WithValue(ctx, spanRefKey{}, ref)
}

// WithParentSpan returns ctx under which new spans parent to the given
// span ID — used to splice a remote caller's span context (header or
// wire prefix) into the local tree. id 0 returns ctx unchanged.
func WithParentSpan(ctx context.Context, id uint64) context.Context {
	if id == 0 {
		return ctx
	}
	ref := refFrom(ctx)
	ref.parent = id
	return context.WithValue(ctx, spanRefKey{}, ref)
}

// ParentSpan returns the span ID new spans in ctx would parent under
// (the active span), 0 when there is none.
func ParentSpan(ctx context.Context) uint64 { return refFrom(ctx).parent }

var spanPool = sync.Pool{New: func() any { return new(Span) }}

// newSpanID returns a fresh non-zero span ID. Span IDs only need to be
// unique within a trace's lifetime in the flight recorder, so the
// cheap generator is the right one (trace IDs keep crypto/rand).
func newSpanID() uint64 {
	for {
		if id := rand.Uint64(); id != 0 {
			return id
		}
	}
}

// StartLeaf starts a span that will never be a parent: it returns only
// the *Span, not a derived context, so on hot paths (the engine's
// cache-hit fast path) a recorded span costs zero heap allocations —
// the span comes from a pool and End copies it into the ring by value.
// When ctx records no spans it returns nil, and every *Span method is
// nil-safe, so call sites need no recording checks.
func StartLeaf(ctx context.Context, name string) *Span {
	ref := refFrom(ctx)
	if ref.store == nil && ref.coll == nil {
		return nil
	}
	s := spanPool.Get().(*Span)
	s.TraceID = Trace(ctx)
	s.ID = newSpanID()
	s.Parent = ref.parent
	s.Name = name
	s.Start = time.Now()
	s.ref = ref
	return s
}

// StartSpan starts a span and returns a context under which child spans
// parent to it. When ctx records no spans it returns (ctx, nil) — the
// nil span's methods are all no-ops.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	s := StartLeaf(ctx, name)
	if s == nil {
		return ctx, nil
	}
	ref := s.ref
	ref.parent = s.ID
	return context.WithValue(ctx, spanRefKey{}, ref), s
}

// SetAttr attaches one attribute. Beyond the fixed capacity
// (maxSpanAttrs) attributes are silently dropped.
func (s *Span) SetAttr(key, value string) {
	if s == nil || s.nattrs >= maxSpanAttrs {
		return
	}
	s.attrs[s.nattrs] = Attr{Key: key, Value: value}
	s.nattrs++
}

// SetAttrInt is SetAttr for integers.
func (s *Span) SetAttrInt(key string, value int) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.Itoa(value))
}

// SetError marks the span failed. A nil error is ignored.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.Error = err.Error()
}

// Attrs returns the span's attributes in insertion order.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	return s.attrs[:s.nattrs]
}

// End stamps the duration, delivers the span to its context's sinks
// (flight recorder and/or collector) by value, and recycles it. The
// span must not be used after End.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.Duration = time.Since(s.Start)
	if s.ref.coll != nil {
		s.ref.coll.add(s)
	}
	if s.ref.store != nil {
		s.ref.store.add(s)
	}
	*s = Span{}
	spanPool.Put(s)
}

// RecordSpan records an already-measured interval as a span under ctx's
// trace and active parent — the retrofit path for code that measures
// durations itself (queue waits, synthetic slow-request roots). It is a
// no-op when ctx records no spans.
func RecordSpan(ctx context.Context, name string, start time.Time, d time.Duration, attrs ...Attr) {
	ref := refFrom(ctx)
	if ref.store == nil && ref.coll == nil {
		return
	}
	var s Span
	s.TraceID = Trace(ctx)
	s.ID = newSpanID()
	s.Parent = ref.parent
	s.Name = name
	s.Start = start
	s.Duration = d
	for _, a := range attrs {
		if s.nattrs >= maxSpanAttrs {
			break
		}
		s.attrs[s.nattrs] = a
		s.nattrs++
	}
	if ref.coll != nil {
		ref.coll.add(&s)
	}
	if ref.store != nil {
		ref.store.add(&s)
	}
}

// Collector gathers the ended spans of one request so they can be
// shipped across a process boundary (the wire transport's FrameDone
// payload). Safe for concurrent use.
type Collector struct {
	mu    sync.Mutex
	spans []Span
}

// maxCollectedSpans bounds one request's shipped spans; a pathological
// batch cannot bloat its FrameDone payload without bound.
const maxCollectedSpans = 512

func (c *Collector) add(s *Span) {
	c.mu.Lock()
	if len(c.spans) < maxCollectedSpans {
		c.spans = append(c.spans, *s)
	}
	c.mu.Unlock()
}

// Spans returns the collected spans (a copy).
func (c *Collector) Spans() []Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Span, len(c.spans))
	copy(out, c.spans)
	return out
}

// MarshalJSON encodes the collected spans as a JSON array, nil-safe
// ("[]" when empty).
func (c *Collector) MarshalJSON() ([]byte, error) {
	return json.Marshal(c.Spans())
}

// FormatSpanID renders a span ID as the 16-hex-character wire form, ""
// for the zero ID.
func FormatSpanID(id uint64) string {
	if id == 0 {
		return ""
	}
	var b [16]byte
	const hexdigits = "0123456789abcdef"
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[id&0xf]
		id >>= 4
	}
	return string(b[:])
}

// ParseSpanID parses the 16-hex form back to an ID; malformed or empty
// input returns 0 (no parent) — remote span context is advisory, never
// an error.
func ParseSpanID(s string) uint64 {
	if len(s) != 16 {
		return 0
	}
	var id uint64
	for i := 0; i < 16; i++ {
		c := s[i]
		var v uint64
		switch {
		case c >= '0' && c <= '9':
			v = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			v = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			v = uint64(c-'A') + 10
		default:
			return 0
		}
		id = id<<4 | v
	}
	return id
}

// spanJSON is the serialized form of a Span.
type spanJSON struct {
	TraceID    string            `json:"trace_id"`
	ID         string            `json:"id"`
	Parent     string            `json:"parent,omitempty"`
	Name       string            `json:"name"`
	Start      time.Time         `json:"start"`
	DurationMS float64           `json:"duration_ms"`
	Error      string            `json:"error,omitempty"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// MarshalJSON renders the span in its wire/query form: hex IDs,
// duration in milliseconds, attributes as an object.
func (s Span) MarshalJSON() ([]byte, error) {
	out := spanJSON{
		TraceID:    s.TraceID,
		ID:         FormatSpanID(s.ID),
		Parent:     FormatSpanID(s.Parent),
		Name:       s.Name,
		Start:      s.Start,
		DurationMS: float64(s.Duration) / float64(time.Millisecond),
		Error:      s.Error,
	}
	if s.nattrs > 0 {
		out.Attrs = make(map[string]string, s.nattrs)
		for _, a := range s.attrs[:s.nattrs] {
			out.Attrs[a.Key] = a.Value
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes the wire form. Attributes beyond the fixed
// capacity are dropped deterministically (sorted key order).
func (s *Span) UnmarshalJSON(data []byte) error {
	var in spanJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&in); err != nil {
		return err
	}
	if in.ID == "" {
		return fmt.Errorf("obs: span without an id")
	}
	id := ParseSpanID(in.ID)
	if id == 0 {
		return fmt.Errorf("obs: bad span id %q", in.ID)
	}
	*s = Span{
		TraceID:  in.TraceID,
		ID:       id,
		Parent:   ParseSpanID(in.Parent),
		Name:     in.Name,
		Start:    in.Start,
		Duration: time.Duration(in.DurationMS * float64(time.Millisecond)),
		Error:    in.Error,
	}
	if len(in.Attrs) > 0 {
		keys := make([]string, 0, len(in.Attrs))
		for k := range in.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if s.nattrs >= maxSpanAttrs {
				break
			}
			s.attrs[s.nattrs] = Attr{Key: k, Value: in.Attrs[k]}
			s.nattrs++
		}
	}
	return nil
}
