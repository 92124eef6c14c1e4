package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// The traced phase runs three parts per workload, each with one caller:
//
//	A  the closed loop over HTTP on a program with rpserve's default
//	   flight recorder, and on a second one without it;
//	B  a replay of the same inputs through the layers' public functions,
//	   in the order the handler calls them, on the second program, timed
//	   by the harness's own spans (tracer);
//	C  the first program's own counters and histograms, read as deltas
//	   over the phase.
//
// The parts take turns in short cycles, with an echo server that times
// HTTP alone. The shares below are of the phase's length, half of
// -seconds.
const (
	traceSettleShare = 0.05
	tracePassShare   = 0.3 // each of the two programs of A
	traceReplayShare = 0.25
	traceEchoShare   = 0.10
)

// tracer records the harness's spans. Each replayed request is a root
// span named "op" and each call into a layer a child named after the
// layer. A layer call measured on its own, outside any request, is a
// child of a "side" root; a watch delivery is a child of a "watch" root.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	root     int // index of the open root span
}

type span struct {
	Workload string `json:"workload"`
	Name     string `json:"name"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a root
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now(), root: -1}
}

func (t *tracer) at(when time.Time) int64 { return int64(when.Sub(t.t0)) }

func (t *tracer) add(name string, parent int, start, end time.Time) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{Workload: t.workload, Name: name, ID: id,
		Parent: parent, StartNS: t.at(start), EndNS: t.at(end)})
	return id
}

// begin opens a root span of the given kind; end closes it.
func (t *tracer) begin(kind string) { t.root = t.add(kind, -1, time.Now(), time.Time{}) }
func (t *tracer) end()              { t.spans[t.root].EndNS = t.at(time.Now()) }

// record adds a root of the given kind holding one layer span, both
// spanning [start, end].
func (t *tracer) record(kind, name string, start, end time.Time) {
	t.add(name, t.add(kind, -1, start, end), start, end)
}

// layer runs f inside a child span of the open root.
func (t *tracer) layer(name string, f func()) {
	start := time.Now()
	f()
	t.add(name, t.root, start, time.Now())
}

// selfTimes returns, for each root of the given kind, the self time of
// every layer under it: the summed durations of the layer's spans there,
// each minus the time its own children cover.
func (t *tracer) selfTimes(kind string) []map[string]time.Duration {
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.EndNS - s.StartNS
		}
	}
	perRoot := map[int]map[string]time.Duration{}
	for _, s := range t.spans {
		if s.Parent < 0 || t.spans[s.Parent].Name != kind {
			continue
		}
		if perRoot[s.Parent] == nil {
			perRoot[s.Parent] = map[string]time.Duration{}
		}
		perRoot[s.Parent][s.Name] += time.Duration(s.EndNS - s.StartNS - covered[s.ID])
	}
	out := make([]map[string]time.Duration, 0, len(perRoot))
	for _, layers := range perRoot {
		out = append(out, layers)
	}
	return out
}

// sum totals the durations of the spans with the given name.
func (t *tracer) sum(name string) histSum {
	var h histSum
	for _, s := range t.spans {
		if s.Name == name {
			h = h.plus(histSum{1, float64(s.EndNS-s.StartNS) / 1e9})
		}
	}
	return h
}

// histSum is the exact part of a histogram: how many observations and
// their sum in seconds. The program's histograms bucket from 500µs up,
// too coarse for a median of the faster layers, so the traced phase
// reads means from them.
type histSum struct {
	count uint64
	sum   float64
}

func histOf(h obs.HistogramSnapshot) histSum { return histSum{h.Count, h.Sum} }
func (h histSum) plus(o histSum) histSum     { return histSum{h.count + o.count, h.sum + o.sum} }
func (h histSum) minus(o histSum) histSum    { return histSum{h.count - o.count, h.sum - o.sum} }

func (h histSum) meanUS() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count) * 1e6
}

// counters is part C: the program's counters and histograms.
type counters struct {
	hits, misses, treeHits, treeMisses uint64
	solve                              map[string]histSum // per solver, over every engine
	queue                              histSum
	shardRTT, reorder                  histSum
	rowsRouted, wireRows               uint64
	deltas, incremental                uint64
	apply                              histSum
}

func readCounters(p *program) counters {
	st := p.engine.Stats()
	c := counters{hits: st.CacheHits, misses: st.CacheMisses,
		treeHits: st.TreeCacheHits, treeMisses: st.TreeCacheMisses, solve: map[string]histSum{}}
	engines := []*service.Engine{p.engine}
	for _, w := range p.workers {
		engines = append(engines, w.engine)
	}
	for _, e := range engines {
		solve, queue := e.SolveHistograms()
		for name, h := range solve {
			c.solve[name] = c.solve[name].plus(histOf(h))
		}
		for _, h := range queue {
			c.queue = c.queue.plus(histOf(h))
		}
	}
	if p.pool != nil {
		cs := p.pool.ClusterStats()
		c.rowsRouted, c.wireRows = cs.RowsRouted, cs.WireRows
		ch := p.pool.ClusterHistograms()
		for _, h := range ch.ShardRTT {
			c.shardRTT = c.shardRTT.plus(histOf(h))
		}
		c.reorder = histOf(ch.ReorderWait)
	}
	ss := p.sessions.Stats()
	c.deltas, c.incremental, c.apply = ss.Deltas, ss.IncrementalSolves, histOf(ss.Apply)
	return c
}

func (c counters) minus(o counters) counters {
	d := counters{
		hits: c.hits - o.hits, misses: c.misses - o.misses,
		treeHits: c.treeHits - o.treeHits, treeMisses: c.treeMisses - o.treeMisses,
		solve: map[string]histSum{}, queue: c.queue.minus(o.queue),
		shardRTT: c.shardRTT.minus(o.shardRTT), reorder: c.reorder.minus(o.reorder),
		rowsRouted: c.rowsRouted - o.rowsRouted, wireRows: c.wireRows - o.wireRows,
		deltas: c.deltas - o.deltas, incremental: c.incremental - o.incremental,
		apply: c.apply.minus(o.apply),
	}
	for name, h := range c.solve {
		if h = h.minus(o.solve[name]); h.count > 0 {
			d.solve[name] = h
		}
	}
	return d
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// traceResult is the traced phase's outcome for one workload.
type traceResult struct {
	layers            map[string]float64
	spans             []span
	attempted, failed int
	crossCheck        []string // failed cross-checks, each naming its layer
}

// crossCheckTolerance is how far the harness's outside timing of a layer
// may stray from the program's own timing of it.
const crossCheckTolerance = 0.20

// sumRatioRange is where layers.sum_ratio must fall.
var sumRatioRange = [2]float64{0.75, 1.25}

func traceWorkload(name string, w workload, cfg config) (traceResult, error) {
	ctx := context.Background()
	phase := time.Duration(cfg.seconds / 2 * float64(time.Second))
	slice := func(share float64) time.Duration { return time.Duration(float64(phase) * share / traceCycles) }
	var t tally
	res := traceResult{layers: map[string]float64{}}

	handler := &handlerTimer{}
	traced, err := startPass(ctx, w, true, handler.wrap, &t)
	if err != nil {
		return res, err
	}
	bare, err := startPass(ctx, w, false, nil, &t)
	if err != nil {
		traced.close(ctx, &t)
		return res, err
	}
	rp, err := w.replayer(ctx, bare.p, &t)
	if err != nil {
		traced.close(ctx, &t)
		bare.close(ctx, &t)
		return res, err
	}
	traced.c.keepLast = true
	traced.loop(ctx, slice(traceSettleShare)*traceCycles, &t, false)
	traced.c.keepLast = false
	bare.loop(ctx, slice(traceSettleShare)*traceCycles, &t, false)
	e, err := startEcho(traced.c.last)
	if err != nil {
		traced.close(ctx, &t)
		bare.close(ctx, &t)
		return res, err
	}
	method, _, reqBody := traced.tg.request(0)

	tr := newTracer(name)
	before := readCounters(traced.p)
	var gcCPU float64 // GC CPU seconds during the traced program's slices
	for range traceCycles {
		handler.set(true)
		g0 := gcSeconds()
		traced.loop(ctx, slice(tracePassShare), &t, true)
		gcCPU += gcSeconds() - g0
		handler.set(false)
		bare.loop(ctx, slice(tracePassShare), &t, true)
		rp.run(ctx, tr, slice(traceReplayShare), &t)
		e.loop(ctx, method, reqBody, slice(traceEchoShare), &t)
	}
	d := readCounters(traced.p).minus(before)
	timings := rp.close(ctx, tr, &t)
	e.close()
	traced.close(ctx, &t)
	bare.close(ctx, &t)
	if len(traced.lat) == 0 || len(bare.lat) == 0 || len(e.lat) == 0 {
		return res, errors.New("a traced pass completed no request")
	}

	roots := tr.selfTimes("op")
	for layer, v := range byLayer(roots) {
		res.layers[layer+"_us"] = us(medianDur(v))
	}
	for _, kind := range []string{"side", "watch"} {
		for layer, v := range byLayer(tr.selfTimes(kind)) {
			res.layers[layer+"_us"] = us(medianDur(v))
		}
	}
	res.layers["service.cache_hit_ratio"] = ratio(d.hits, d.hits+d.misses)
	res.layers["tree.intern_hit_ratio"] = ratio(d.treeHits, d.treeHits+d.treeMisses)
	res.layers["service.queue_wait_us"] = d.queue.meanUS()
	res.layers["cluster.shard_rtt_us"] = d.shardRTT.meanUS()
	res.layers["cluster.reorder_wait_us"] = d.reorder.meanUS()
	res.layers["cluster.wire_row_ratio"] = ratio(d.wireRows, d.rowsRouted)
	res.layers["session.incremental_ratio"] = ratio(d.incremental, d.deltas)
	res.layers["runtime.gc_us"] = gcCPU * 1e6 / float64(len(traced.lat))
	res.layers["http.roundtrip_us"] = us(medianDur(e.lat))
	p50, p50Bare := us(medianDur(traced.lat)), us(medianDur(bare.lat))
	// HTTP as served: part A's median minus that of the handler it
	// wraps. It exceeds the echo's round trip by what the served
	// program adds around the handler: its other connections (a
	// session's watch stream), GC and scheduling.
	transport := p50 - us(medianDur(handler.durations()))
	res.layers["http.transport_us"] = transport
	res.layers["obs.flight_recorder_pct"] = 100 * (p50 - p50Bare) / p50Bare

	// The layers account for a request when their self times, summed per
	// replayed request, plus the served transport make up part A's
	// median.
	blocking := us(medianDur(opTotals(roots)))
	if res.layers["heuristics.solve_us"] > 0 && res.layers["service.solve_batch_us"] == 0 &&
		res.layers["cluster.route_batch_us"] == 0 {
		// A lone solve first waits for an engine worker; a batch's waits
		// are inside its SolveBatch or RouteBatch span.
		blocking += res.layers["service.queue_wait_us"]
	}
	res.layers["layers.sum_ratio"] = (blocking + transport) / p50
	for _, m := range layerMetrics {
		if _, ok := res.layers[m.name]; !ok {
			res.layers[m.name] = 0
		}
	}

	res.crossCheck = crossCheck(timings, res.layers["layers.sum_ratio"])
	res.spans = tr.spans
	res.attempted, res.failed = t.attempted, t.failed
	return res, nil
}

// handlerTimer times the program's HTTP handler from outside: the harness
// wraps the handler the program serves.
type handlerTimer struct {
	mu  sync.Mutex
	on  bool
	lat []time.Duration
}

func (h *handlerTimer) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		d := time.Since(start)
		h.mu.Lock()
		if h.on {
			h.lat = append(h.lat, d)
		}
		h.mu.Unlock()
	})
}

// set starts or stops recording; requests that finish while it is off,
// such as a watch stream, are not recorded.
func (h *handlerTimer) set(on bool) {
	h.mu.Lock()
	h.on = on
	h.mu.Unlock()
}

func (h *handlerTimer) durations() []time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lat
}

// gcSeconds is the CPU time the garbage collector has used so far.
func gcSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64()
}

// traceCycles is the number of cycles the traced phase interleaves its
// parts in. The machine's speed drifts over seconds; short turns let
// every part sample the same stretches of it.
const traceCycles = 20

// byLayer collects each layer's self times over the roots.
func byLayer(roots []map[string]time.Duration) map[string][]time.Duration {
	out := map[string][]time.Duration{}
	for _, layers := range roots {
		for name, d := range layers {
			out[name] = append(out[name], d)
		}
	}
	return out
}

// opTotals sums each root's layer self times.
func opTotals(roots []map[string]time.Duration) []time.Duration {
	out := make([]time.Duration, 0, len(roots))
	for _, layers := range roots {
		var sum time.Duration
		for _, d := range layers {
			sum += d
		}
		out = append(out, sum)
	}
	return out
}

// pass is one program under a single caller's closed loop, part A.
type pass struct {
	p                 *program
	c                 *client
	tg                target
	seq               atomic.Int64
	lat               []time.Duration
	attempted, failed int
}

func startPass(ctx context.Context, w workload, spans bool, wrap func(http.Handler) http.Handler, t *tally) (*pass, error) {
	p, err := newProgram(w.routed(), spans, wrap)
	if err != nil {
		return nil, err
	}
	ps := &pass{p: p, c: newClient(p.url(), clientConns)}
	if ps.tg, err = w.setup(ctx, ps.c, t); err != nil {
		ps.c.close()
		p.close()
		return nil, err
	}
	return ps, nil
}

// loop runs the closed loop for d; record keeps the latencies.
func (ps *pass) loop(ctx context.Context, d time.Duration, t *tally, record bool) {
	r := closedLoop(1, d, &ps.seq, func(i int64) error { return callChecked(ctx, ps.c, ps.tg, i) })
	ps.attempted += r.attempted
	ps.failed += r.failed
	t.attempted += r.attempted
	t.failed += r.failed
	if record {
		ps.lat = append(ps.lat, r.lat...)
	}
}

// close runs the end-of-pass checks, which cover every request of the
// pass, and closes the program.
func (ps *pass) close(ctx context.Context, t *tally) {
	if err := ps.tg.finish(ctx, ps.c); err != nil {
		t.failed += ps.attempted - ps.failed
		reportFailure(fmt.Errorf("end of traced pass: %w", err))
	}
	ps.c.close()
	ps.p.close()
}

// echo measures HTTP alone: round trips of requests of the workload's
// size to a handler that discards the body and answers with a captured
// response, written in the same lines and flushes as the program
// writes it.
type echo struct {
	srv *server
	c   *client
	seq atomic.Int64
	lat []time.Duration
}

func startEcho(resp []byte) (*echo, error) {
	lines := bytes.SplitAfter(resp, []byte("\n"))
	if len(lines) > 1 && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	srv, err := serve(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if len(lines) == 1 {
			w.Header().Set("Content-Type", "application/json")
			w.Write(resp)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		flusher := w.(http.Flusher)
		for i, line := range lines {
			w.Write(line)
			if i < len(lines)-1 {
				flusher.Flush()
			}
		}
	}))
	if err != nil {
		return nil, err
	}
	return &echo{srv: srv, c: newClient("http://"+srv.addr(), 1)}, nil
}

func (e *echo) loop(ctx context.Context, method string, req []byte, d time.Duration, t *tally) {
	r := closedLoop(1, d, &e.seq, func(int64) error {
		_, err := e.c.call(ctx, method, "/", req)
		return err
	})
	t.attempted += r.attempted
	t.failed += r.failed
	e.lat = append(e.lat, r.lat...)
}

func (e *echo) close() {
	e.c.close()
	e.srv.close()
}

// crossCheck validates the harness's timing from outside against the
// program's own: each pair of timings of the same calls must agree in
// mean, and the layers must account for part A's median.
func crossCheck(timings []timing, sumRatio float64) []string {
	var failed []string
	for _, tm := range timings {
		harness, program := tm.harness.meanUS(), tm.program.meanUS()
		if program > 0 && math.Abs(harness/program-1) > crossCheckTolerance {
			failed = append(failed, fmt.Sprintf("%s: harness mean %.1fµs, program mean %.1fµs (tolerance %.0f%%)",
				tm.layer, harness, program, 100*crossCheckTolerance))
		}
	}
	if sumRatio < sumRatioRange[0] || sumRatio > sumRatioRange[1] {
		failed = append(failed, fmt.Sprintf("layers.sum_ratio: %.3f outside [%.2f, %.2f]",
			sumRatio, sumRatioRange[0], sumRatioRange[1]))
	}
	return failed
}

func medianDur(v []time.Duration) time.Duration { return percentile(sortedCopy(v), 0.5) }
