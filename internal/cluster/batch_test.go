package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/service"
)

// routedBatchPayload builds a /v1/batch-shaped payload over a generated
// instance, with n variations bumping the request vector.
func routedBatchPayload(t testing.TB, in *core.Instance, solver string, n int) *service.BatchPayload {
	t.Helper()
	vars := make([]map[string]any, n)
	for i := range vars {
		vars[i] = map[string]any{"requests": bumpRequests(in, i)}
	}
	raw, err := json.Marshal(map[string]any{
		"topology":   map[string]any{"parents": in.Tree.Parents(), "is_client": in.Tree.ClientFlags()},
		"solver":     solver,
		"options":    map[string]any{"no_cache": true},
		"base":       map[string]any{"requests": in.R, "capacities": in.W, "storage_costs": in.S},
		"variations": vars,
	})
	if err != nil {
		t.Fatal(err)
	}
	req, err := service.DecodeBatchPayload(raw)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

func bumpRequests(in *core.Instance, i int) []int64 {
	r := append([]int64(nil), in.R...)
	for j := range r {
		if r[j] > 0 {
			r[j] += int64(i % 5)
		}
	}
	return r
}

// localBatchCosts solves every variation in-process for comparison.
func localBatchCosts(t testing.TB, e *service.Engine, in *core.Instance, solver string, n int) []int64 {
	t.Helper()
	out := make([]int64, n)
	for i := 0; i < n; i++ {
		vi := *in
		vi.R = bumpRequests(in, i)
		resp, err := e.Solve(context.Background(), service.Request{Instance: &vi, Solver: solver})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = resp.Cost
	}
	return out
}

// lineCost reads a line's cost through its rendered JSON: a routed line
// carries raw bytes (BatchLine.Raw), a local one a decoded Response,
// and AppendJSON is the one path both take to the client.
func lineCost(t testing.TB, line *service.BatchLine) int64 {
	t.Helper()
	data, err := line.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	var row struct {
		Cost int64 `json:"cost"`
	}
	if err := json.Unmarshal(data, &row); err != nil {
		t.Fatal(err)
	}
	return row.Cost
}

// collectRouted runs RouteBatch and asserts the in-order delivery
// contract while collecting the lines.
func collectRouted(t *testing.T, p *Pool, e *service.Engine, req *service.BatchPayload) []service.BatchLine {
	t.Helper()
	base, policy, err := req.Build(e)
	if err != nil {
		t.Fatal(err)
	}
	var lines []service.BatchLine
	err = p.RouteBatch(context.Background(), e, base, policy, req, func(line service.BatchLine) error {
		if line.Index != len(lines) {
			t.Fatalf("line %d arrived at stream position %d: routed batches must stream in request order", line.Index, len(lines))
		}
		lines = append(lines, line)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestRouteBatchMatchesLocalInOrder: an inline batch routed over two
// shards streams one line per variation, strictly in index order, with
// the same costs as in-process solves — and all of it computed
// remotely.
func TestRouteBatchMatchesLocalInOrder(t *testing.T) {
	w1, we := newWorker(t, 2)
	w2, _ := newWorker(t, 2)
	p := newTestPool(t, []string{w1.URL, w2.URL}, PoolOptions{ProbeInterval: -1})

	reg := service.NewRegistry()
	if err := RegisterRemote(reg, p); err != nil {
		t.Fatal(err)
	}
	ce := service.NewEngine(service.EngineOptions{Workers: 1, Registry: reg})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		ce.Close(ctx)
	})

	in := gen.Instance(gen.Config{Internal: 6, Clients: 12, Lambda: 0.4, UnitCosts: true}, 3)
	const n = 12
	// An @remote-qualified solver must be forwarded stripped; the twin
	// resolving on the coordinator proves the payload validated there.
	req := routedBatchPayload(t, in, "MB@remote", n)
	lines := collectRouted(t, p, ce, req)
	if len(lines) != n {
		t.Fatalf("got %d lines, want %d", len(lines), n)
	}
	want := localBatchCosts(t, we, in, "mb", n)
	for i, line := range lines {
		if line.Error != "" {
			t.Fatalf("variation %d failed: %s", i, line.Error)
		}
		if cost := lineCost(t, &line); cost != want[i] {
			t.Fatalf("variation %d: routed cost %d != local %d", i, cost, want[i])
		}
	}
	st := p.ClusterStats()
	if st.BatchesRouted != 1 || st.RowsRouted != n || st.RowsLocalFallback != 0 {
		t.Fatalf("cluster stats = %+v, want %d rows all routed", st, n)
	}
	// The rows must have traveled the binary transport — this is the
	// equivalence test's transport assertion.
	if st.WireRows != n || st.WireConnections == 0 {
		t.Fatalf("wire stats = %+v, want all %d rows framed over rp-wire/2", st, n)
	}
}

// TestRouteBatchFallsBackLocal: with every shard down (and with no
// shards at all), the routed inline batch degrades to local execution
// and still answers every variation correctly.
func TestRouteBatchFallsBackLocal(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadAddr := dead.URL
	killServer(dead)

	for name, addrs := range map[string][]string{"all-shards-down": {deadAddr}, "empty-pool": nil} {
		t.Run(name, func(t *testing.T) {
			p := newTestPool(t, addrs, PoolOptions{
				ProbeInterval: -1,
				FailThreshold: 1,
				OpenFor:       50 * time.Millisecond,
				RetryBackoff:  5 * time.Millisecond,
			})
			e := service.NewEngine(service.EngineOptions{Workers: 2})
			t.Cleanup(func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				e.Close(ctx)
			})
			in := gen.Instance(gen.Config{Internal: 6, Clients: 12, Lambda: 0.4, UnitCosts: true}, 3)
			const n = 6
			req := routedBatchPayload(t, in, "mb", n)
			lines := collectRouted(t, p, e, req)
			if len(lines) != n {
				t.Fatalf("got %d lines, want %d", len(lines), n)
			}
			want := localBatchCosts(t, e, in, "mb", n)
			for i, line := range lines {
				if cost := lineCost(t, &line); line.Error != "" || cost != want[i] {
					t.Fatalf("variation %d = cost %d err %q, want cost %d", i, cost, line.Error, want[i])
				}
			}
			if st := p.ClusterStats(); st.RowsLocalFallback != n || st.RowsRouted != 0 {
				t.Fatalf("cluster stats = %+v, want all %d rows local", st, n)
			}
		})
	}
}

// TestInlineBatchHTTPRouted: the full coordinator HTTP path — POST
// /v1/batch on a daemon fronting a two-shard pool streams NDJSON in
// index order with a done trailer, and /healthz exposes the routing
// counters.
func TestInlineBatchHTTPRouted(t *testing.T) {
	w1, we := newWorker(t, 2)
	w2, _ := newWorker(t, 2)
	p := newTestPool(t, []string{w1.URL, w2.URL}, PoolOptions{ProbeInterval: -1})

	reg := service.NewRegistry()
	if err := RegisterRemote(reg, p); err != nil {
		t.Fatal(err)
	}
	ce := service.NewEngine(service.EngineOptions{Workers: 1, Registry: reg})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		ce.Close(ctx)
	})
	coord := httptest.NewServer(service.NewHandlerOpts(ce, service.HandlerOptions{Cluster: p}))
	defer coord.Close()

	in := gen.Instance(gen.Config{Internal: 6, Clients: 12, Lambda: 0.4, UnitCosts: true}, 7)
	const n = 8
	vars := make([]map[string]any, n)
	for i := range vars {
		vars[i] = map[string]any{"requests": bumpRequests(in, i)}
	}
	body, _ := json.Marshal(map[string]any{
		"topology":   map[string]any{"parents": in.Tree.Parents(), "is_client": in.Tree.ClientFlags()},
		"solver":     "optimal",
		"base":       map[string]any{"requests": in.R, "capacities": in.W, "storage_costs": in.S},
		"variations": vars,
	})
	resp, err := http.Post(coord.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	want := localBatchCosts(t, we, in, "optimal", n)
	sc := bufio.NewScanner(resp.Body)
	seen := 0
	doneSeen := false
	for sc.Scan() {
		var line struct {
			Done   bool   `json:"done"`
			Items  int    `json:"items"`
			Failed int    `json:"failed"`
			Index  *int   `json:"index"`
			Cost   int64  `json:"cost"`
			Error  string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		if line.Done {
			doneSeen = true
			if line.Items != n || line.Failed != 0 {
				t.Fatalf("done trailer = %+v", line)
			}
			continue
		}
		if line.Error != "" {
			t.Fatalf("line error: %s", line.Error)
		}
		if line.Index == nil || *line.Index != seen {
			t.Fatalf("line %d out of order (got index %v): routed batches stream in request order", seen, line.Index)
		}
		if line.Cost != want[seen] {
			t.Fatalf("index %d: cost %d != local %d", seen, line.Cost, want[seen])
		}
		seen++
	}
	if !doneSeen || seen != n {
		t.Fatalf("stream ended with %d lines, done=%v", seen, doneSeen)
	}

	// The routing counters surface on /healthz.
	hresp, err := http.Get(coord.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var health struct {
		Cluster *service.ClusterStats `json:"cluster"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Cluster == nil || health.Cluster.BatchesRouted != 1 || health.Cluster.RowsRouted != n {
		t.Fatalf("healthz cluster stats = %+v", health.Cluster)
	}
}

// BenchmarkRouteBatchInline pins the inline-batch acceptance criterion:
// the same CPU-bound batch through a coordinator whose own engine has
// one solver goroutine, computed locally vs routed over one and two
// single-core shards. A fourth case, relay, measures the transport. On a multi-core host cluster=2 beats local-only
// (two solver goroutines against one); a single-core host necessarily
// shows transport overhead instead — there is no second core for the
// second shard — so treat these numbers per-machine, not as a ratio to
// assert in tests.
func BenchmarkRouteBatchInline(b *testing.B) {
	// Sized so the solve dominates the HTTP hop: MixedBest on a
	// ~3200-vertex tree costs several ms per variation, against well
	// under a ms of transport per chunk.
	const variations = 16
	in := gen.Instance(gen.Config{Internal: 800, Clients: 2400, Lambda: 0.6, UnitCosts: true}, 5)

	run := func(b *testing.B, shards int) {
		e := service.NewEngine(service.EngineOptions{Workers: 1, CacheSize: -1})
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			e.Close(ctx)
		}()
		var addrs []string
		for i := 0; i < shards; i++ {
			srv, _ := newWorker(b, 1)
			addrs = append(addrs, srv.URL)
		}
		p, err := NewPool(addrs, PoolOptions{ProbeInterval: -1, MaxInFlight: 2})
		if err != nil {
			b.Fatal(err)
		}
		defer p.Close()

		req := routedBatchPayload(b, in, "mb", variations)
		base, policy, err := req.Build(e)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			if shards == 0 {
				err := e.SolveBatch(context.Background(), service.BatchRequest{
					Base: base, Solver: req.Solver, Policy: policy,
					Options:    req.EngineOptions(),
					Variations: req.Variations,
				}, func(item service.BatchItem) {
					if item.Err != nil {
						b.Fatal(item.Err)
					}
				})
				if err != nil {
					b.Fatal(err)
				}
				continue
			}
			err := p.RouteBatch(context.Background(), e, base, policy, req, func(line service.BatchLine) error {
				if line.Error != "" {
					b.Fatalf("line %d: %s", line.Index, line.Error)
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("local-only", func(b *testing.B) { run(b, 0) })
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("cluster=%d", shards), func(b *testing.B) { run(b, shards) })
	}

	// relay isolates the wire transport's cost: many cheap rows with full
	// solutions attached, where encode/decode and framing — not solving
	// — dominate.
	b.Run("relay", func(b *testing.B) {
		tin := gen.Instance(gen.Config{Internal: 30, Clients: 120, Lambda: 0.5, UnitCosts: true}, 9)
		e := service.NewEngine(service.EngineOptions{Workers: 1, CacheSize: -1})
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			e.Close(ctx)
		}()
		srv, _ := newWorker(b, 4)
		p, err := NewPool([]string{srv.URL}, PoolOptions{ProbeInterval: -1, MaxInFlight: 4})
		if err != nil {
			b.Fatal(err)
		}
		defer p.Close()

		req := routedBatchPayload(b, tin, "mb", 256)
		req.Options.IncludeSolution = true
		base, policy, err := req.Build(e)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			err := p.RouteBatch(context.Background(), e, base, policy, req, func(line service.BatchLine) error {
				if line.Error != "" {
					b.Fatalf("line %d: %s", line.Index, line.Error)
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if p.ClusterStats().WireRows == 0 {
			b.Fatal("relay run carried no rows over the binary transport")
		}
	})
}
