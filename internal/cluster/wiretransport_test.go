package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster/wire"
	"repro/internal/gen"
	"repro/internal/service"
)

// newCoordinatorEngine builds the engine a coordinator runs: a registry
// with @remote twins over the pool.
func newCoordinatorEngine(t testing.TB, p *Pool, workers int) *service.Engine {
	t.Helper()
	reg := service.NewRegistry()
	if err := RegisterRemote(reg, p); err != nil {
		t.Fatal(err)
	}
	ce := service.NewEngine(service.EngineOptions{Workers: workers, Registry: reg})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		ce.Close(ctx)
	})
	return ce
}

// Timing and cache provenance are the only legitimate differences
// between a routed row and a locally computed one.
var volatileRowFields = regexp.MustCompile(`"(elapsed_ms|cached)":[^,}]*`)

func normalizeRow(t *testing.T, line *service.BatchLine) string {
	t.Helper()
	data, err := line.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	return volatileRowFields.ReplaceAllString(string(data), `"$1":x`)
}

// TestRouteBatchBinaryBytesMatchLocal pins the zero-copy relay
// contract: the NDJSON a client reads from a batch routed over the
// binary wire is byte-identical to what local execution would have
// produced — same encoder, same field order, same values — modulo the
// elapsed_ms/cached fields, which legitimately differ per run.
func TestRouteBatchBinaryBytesMatchLocal(t *testing.T) {
	srv, _ := newWorker(t, 2)
	p := newTestPool(t, []string{srv.URL}, PoolOptions{ProbeInterval: -1})
	ce := newCoordinatorEngine(t, p, 1)

	in := gen.Instance(gen.Config{Internal: 6, Clients: 12, Lambda: 0.4, UnitCosts: true}, 11)
	const n = 8
	req := routedBatchPayload(t, in, "mb@remote", n)
	routed := collectRouted(t, p, ce, req)
	if len(routed) != n {
		t.Fatalf("got %d routed lines, want %d", len(routed), n)
	}
	if st := p.ClusterStats(); st.WireRows != n {
		t.Fatalf("wire stats = %+v, want all %d rows over the binary transport", st, n)
	}

	// The same batch through a plain local engine, rendered by the same
	// NDJSON emitter the non-cluster handler uses.
	le := service.NewEngine(service.EngineOptions{Workers: 2})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		le.Close(ctx)
	})
	lreq := *req
	lreq.Solver = "mb" // the local engine has no @remote twins
	base, policy, err := lreq.Build(le)
	if err != nil {
		t.Fatal(err)
	}
	local := make([]*service.BatchLine, n)
	err = le.SolveBatch(context.Background(), service.BatchRequest{
		Base: base, Solver: "mb", Policy: policy,
		Options:    req.EngineOptions(),
		Variations: req.Variations,
	}, func(item service.BatchItem) {
		if item.Err != nil {
			t.Errorf("local variation %d: %v", item.Index, item.Err)
			return
		}
		local[item.Index] = &service.BatchLine{Index: item.Index, Response: item.Response}
	})
	if err != nil {
		t.Fatal(err)
	}

	for i := range routed {
		if len(routed[i].Raw) == 0 {
			t.Fatalf("routed line %d carries no raw body: the relay re-encoded it", i)
		}
		got := normalizeRow(t, &routed[i])
		want := normalizeRow(t, local[i])
		if got != want {
			t.Fatalf("row %d differs:\nrouted %s\nlocal  %s", i, got, want)
		}
	}
}

// TestRouteBatchCacheShortCircuit: a repeated inline batch is answered
// from the coordinator's routed-row cache — no shard round-trips, same
// bytes, and the short-circuit counter advances.
func TestRouteBatchCacheShortCircuit(t *testing.T) {
	srv, _ := newWorker(t, 2)
	p := newTestPool(t, []string{srv.URL}, PoolOptions{ProbeInterval: -1})
	ce := newCoordinatorEngine(t, p, 1)

	in := gen.Instance(gen.Config{Internal: 6, Clients: 12, Lambda: 0.4, UnitCosts: true}, 13)
	const n = 6
	req := routedBatchPayload(t, in, "mb@remote", n)
	req.Options.NoCache = false // cacheable, unlike the transport tests

	first := collectRouted(t, p, ce, req)
	st := p.ClusterStats()
	if len(first) != n || st.RowsRouted != n || st.BatchCacheShortCircuits != 0 {
		t.Fatalf("first run: %d lines, stats %+v", len(first), st)
	}

	second := collectRouted(t, p, ce, req)
	st = p.ClusterStats()
	if st.BatchCacheShortCircuits != n {
		t.Fatalf("short circuits = %d, want %d (every repeated variation)", st.BatchCacheShortCircuits, n)
	}
	if st.RowsRouted != n {
		t.Fatalf("rows routed grew to %d: the repeat went back to the shards", st.RowsRouted)
	}
	for i := range second {
		if normalizeRow(t, &second[i]) != normalizeRow(t, &first[i]) {
			t.Fatalf("cached row %d differs from the routed original", i)
		}
		// A replay must say so: cached:true, no stale worker timing, no
		// verbatim raw relay pretending to be a fresh solve.
		if second[i].Response == nil || !second[i].Response.Cached || len(second[i].Raw) != 0 {
			t.Fatalf("replayed row %d does not report itself as cached", i)
		}
	}
}

// hasSolution reads a line's rendered JSON (raw or decoded, the one
// path both take to the client) and reports whether the full
// assignment rode along.
func hasSolution(t *testing.T, line *service.BatchLine) bool {
	t.Helper()
	data, err := line.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	var row struct {
		Solution json.RawMessage `json:"solution"`
	}
	if err := json.Unmarshal(data, &row); err != nil {
		t.Fatal(err)
	}
	return len(row.Solution) > 0 && string(row.Solution) != "null"
}

// TestRouteCacheSolutionFidelity pins the raw-row cache's key contract:
// the serialized body depends on include_solution, so a repeat that
// differs only in that flag must NOT be served the memoized bytes — the
// solution must never be silently missing when requested, nor leaked
// when not.
func TestRouteCacheSolutionFidelity(t *testing.T) {
	srv, _ := newWorker(t, 2)
	p := newTestPool(t, []string{srv.URL}, PoolOptions{ProbeInterval: -1})
	ce := newCoordinatorEngine(t, p, 1)

	in := gen.Instance(gen.Config{Internal: 6, Clients: 12, Lambda: 0.4, UnitCosts: true}, 23)
	const n = 4
	req := routedBatchPayload(t, in, "mb@remote", n)
	req.Options.NoCache = false

	// Run 1: no solutions asked for; rows memoize under the plain key.
	for i, line := range collectRouted(t, p, ce, req) {
		if hasSolution(t, &line) {
			t.Fatalf("run 1 row %d carries a solution nobody asked for", i)
		}
	}

	// Run 2 repeats the batch asking for solutions: the memoized
	// solution-less bodies must not answer it — every row ships out
	// again and comes back with the assignment attached.
	req.Options.IncludeSolution = true
	lines := collectRouted(t, p, ce, req)
	st := p.ClusterStats()
	if st.BatchCacheShortCircuits != 0 {
		t.Fatalf("short circuits = %d: solution-less cached rows answered an include_solution repeat", st.BatchCacheShortCircuits)
	}
	if st.RowsRouted != 2*n {
		t.Fatalf("rows routed = %d, want %d (the include_solution repeat must re-ship)", st.RowsRouted, 2*n)
	}
	for i := range lines {
		if !hasSolution(t, &lines[i]) {
			t.Fatalf("run 2 row %d is missing its solution", i)
		}
	}

	// Run 3 repeats run 2: solution-bearing bodies are now memoized
	// under their own key, so the repeat short-circuits — and the
	// replay keeps the solution while reporting itself cached.
	lines = collectRouted(t, p, ce, req)
	st = p.ClusterStats()
	if st.BatchCacheShortCircuits != n || st.RowsRouted != 2*n {
		t.Fatalf("run 3: short circuits = %d rows routed = %d, want %d short circuits and no new shard trips",
			st.BatchCacheShortCircuits, st.RowsRouted, n)
	}
	for i := range lines {
		if !hasSolution(t, &lines[i]) {
			t.Fatalf("replayed row %d lost its solution", i)
		}
		if lines[i].Response == nil || !lines[i].Response.Cached {
			t.Fatalf("replayed row %d does not report cached:true", i)
		}
	}
}

// deadWireConn fabricates a parked connection whose peer is already
// gone — what every idle entry looks like after a worker restart.
func deadWireConn() *wireConn {
	c1, c2 := net.Pipe()
	c1.Close()
	c2.Close()
	br := bufio.NewReader(c1)
	bw := bufio.NewWriter(c1)
	return &wireConn{conn: c1, br: br, bw: bw, r: wire.NewReader(br), w: wire.NewWriter(bw)}
}

// TestWireDoDrainsStaleIdleConns: a single wire exchange against a
// shard whose idle pool is full of dead keep-alives must drain them
// all and succeed on a fresh dial — not give up after one retry.
func TestWireDoDrainsStaleIdleConns(t *testing.T) {
	srv, _ := newWorker(t, 2)
	p := newTestPool(t, []string{srv.URL}, PoolOptions{ProbeInterval: -1})
	p.mu.RLock()
	s := p.shards[0]
	p.mu.RUnlock()

	s.wire.mu.Lock()
	for i := 0; i < 3; i++ {
		s.wire.idle = append(s.wire.idle, deadWireConn())
	}
	s.wire.mu.Unlock()

	in := gen.Instance(gen.Config{Internal: 6, Clients: 12, Lambda: 0.4, UnitCosts: true}, 29)
	const n = 2
	req := routedBatchPayload(t, in, "mb", n)
	rows := 0
	err := p.BatchChunk(context.Background(), req, func(line service.BatchLine) {
		if line.Error != "" {
			t.Errorf("row %d: %s", line.Index, line.Error)
		}
		rows++
	})
	if err != nil {
		t.Fatalf("chunk failed over a shard with stale parked connections: %v", err)
	}
	if rows != n {
		t.Fatalf("got %d rows, want %d", rows, n)
	}
	if idle := func() int { s.wire.mu.Lock(); defer s.wire.mu.Unlock(); return len(s.wire.idle) }(); idle != 1 {
		t.Fatalf("idle pool holds %d connections, want just the fresh one (stale entries drained)", idle)
	}
}

// TestWireHandshakeHonorsDeadline: against a shard that accepts the
// connection and never answers the upgrade, a chunk ends with the
// caller's own context error as soon as that context is done — not
// after the handshake's fixed cap.
func TestWireHandshakeHonorsDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			c.Close()
		}
	})
	req := routedBatchPayload(t, testInstance(1), "mb", 1)

	for _, tc := range []struct {
		name string
		ctx  func() (context.Context, context.CancelFunc)
		want error
	}{
		{"deadline", func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 100*time.Millisecond)
		}, context.DeadlineExceeded},
		{"cancel", func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(100*time.Millisecond, cancel)
			return ctx, cancel
		}, context.Canceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newTestPool(t, []string{ln.Addr().String()}, PoolOptions{ProbeInterval: -1})
			ctx, cancel := tc.ctx()
			defer cancel()
			start := time.Now()
			err := p.BatchChunk(ctx, req, func(service.BatchLine) {})
			if elapsed := time.Since(start); elapsed > time.Second {
				t.Fatalf("chunk returned after %v, want well under 1s", elapsed)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestPoolExpiresStaleShards: a dynamically joined worker that dies
// without deregistering loses its seat after ExpireAfter consecutive
// failed probes; a static-list shard never does.
func TestPoolExpiresStaleShards(t *testing.T) {
	srv, _ := newWorker(t, 1)
	p := newTestPool(t, nil, PoolOptions{
		ProbeInterval: 20 * time.Millisecond,
		ExpireAfter:   2,
	})
	if _, joined, err := p.AddShard(srv.URL, 2); err != nil || !joined {
		t.Fatalf("join: %v joined=%v", err, joined)
	}
	killServer(srv)
	deadline := time.Now().Add(10 * time.Second)
	for p.ShardCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("dead dynamic shard still holds its seat after %d missed probes allowed", 2)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := p.ClusterStats(); st.ShardsExpired != 1 {
		t.Fatalf("ShardsExpired = %d, want 1", st.ShardsExpired)
	}

	// A shard from the operator's static list keeps its seat no matter
	// how many probes it misses.
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadAddr := dead.URL
	killServer(dead)
	ps := newTestPool(t, []string{deadAddr}, PoolOptions{
		ProbeInterval: 10 * time.Millisecond,
		ExpireAfter:   1,
	})
	time.Sleep(150 * time.Millisecond)
	if ps.ShardCount() != 1 {
		t.Fatal("static shard was expired; only dynamic members may be")
	}
	if st := ps.ClusterStats(); st.ShardsExpired != 0 {
		t.Fatalf("static pool ShardsExpired = %d, want 0", st.ShardsExpired)
	}
}

// TestClusterMembershipSecret: with ClusterSecret set, mutating
// membership calls need the shared-secret header — reads stay open —
// and a Registrar configured with the secret registers fine.
func TestClusterMembershipSecret(t *testing.T) {
	e := service.NewEngine(service.EngineOptions{Workers: 1})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		e.Close(ctx)
	})
	p := newTestPool(t, nil, PoolOptions{ProbeInterval: -1})
	srv := httptest.NewServer(service.NewHandlerOpts(e, service.HandlerOptions{
		Cluster:       p,
		ClusterSecret: "hunter2",
	}))
	defer srv.Close()

	call := func(method, path, body, secret string) int {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if secret != "" {
			req.Header.Set(service.ClusterSecretHeader, secret)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := call(http.MethodGet, "/v1/cluster/shards", "", ""); code != 200 {
		t.Fatalf("read-only GET without secret: %d, want 200", code)
	}
	join := `{"addr":"w1:9001","weight":2}`
	if code := call(http.MethodPost, "/v1/cluster/shards", join, ""); code != 401 {
		t.Fatalf("POST without secret: %d, want 401", code)
	}
	if code := call(http.MethodPost, "/v1/cluster/shards", join, "hunter3"); code != 401 {
		t.Fatalf("POST with wrong secret: %d, want 401", code)
	}
	if p.ShardCount() != 0 {
		t.Fatal("unauthorized POST changed the membership")
	}
	if code := call(http.MethodPost, "/v1/cluster/shards", join, "hunter2"); code != 200 {
		t.Fatalf("POST with secret: %d, want 200", code)
	}
	if code := call(http.MethodDelete, "/v1/cluster/shards?addr=w1:9001", "", ""); code != 401 {
		t.Fatalf("DELETE without secret: %d, want 401", code)
	}
	if p.ShardCount() != 1 {
		t.Fatal("unauthorized DELETE changed the membership")
	}
	if code := call(http.MethodDelete, "/v1/cluster/shards?addr=w1:9001", "", "hunter2"); code != 200 {
		t.Fatalf("DELETE with secret: %d, want 200", code)
	}

	// A registrar carrying the secret joins and leaves cleanly.
	r := &Registrar{
		Coordinator: srv.URL,
		Advertise:   "10.9.9.9:7777",
		Weight:      3,
		Secret:      "hunter2",
		Interval:    time.Hour,
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.ShardCount() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("registrar with secret never joined")
		}
		time.Sleep(5 * time.Millisecond)
	}
	r.Stop()
	if p.ShardCount() != 0 {
		t.Fatal("registrar Stop did not deregister")
	}
}
