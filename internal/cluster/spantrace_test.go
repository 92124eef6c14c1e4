package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cluster/wire"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/service"
)

// TestWireVersionNegotiation: the one handshake is rp-wire/2. A
// current pool lands on it and parks the connection for reuse; any
// other token — rp-wire/1 included — is answered with a 426 naming
// rp-wire/2.
func TestWireVersionNegotiation(t *testing.T) {
	srv, _ := newWorker(t, 2)

	t.Run("v2", func(t *testing.T) {
		p := newTestPool(t, []string{srv.URL}, PoolOptions{ProbeInterval: -1})
		in := gen.Instance(gen.Config{Internal: 6, Clients: 12, Lambda: 0.4, UnitCosts: true}, 31)
		for i := 0; i < 2; i++ {
			rows := 0
			err := p.BatchChunk(context.Background(), routedBatchPayload(t, in, "mb", 2), func(line service.BatchLine) {
				if line.Error != "" {
					t.Errorf("row %d: %s", line.Index, line.Error)
				}
				rows++
			})
			if err != nil || rows != 2 {
				t.Fatalf("chunk %d: %d rows, err %v", i, rows, err)
			}
		}
		if st := p.ClusterStats(); st.WireConnections != 1 || st.WireRequests != 2 {
			t.Fatalf("wire stats %+v, want both chunks on one reused connection", st)
		}
	})

	for _, tc := range []struct{ name, token string }{
		{"refuse-v1", "rp-wire/1"}, {"refuse-unknown", "rp-wire/3"}, {"refuse-missing", ""},
	} {
		token := tc.token
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/wire", nil)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Connection", "Upgrade")
			if token != "" {
				req.Header.Set("Upgrade", token)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusUpgradeRequired || resp.Header.Get("Upgrade") != wire.ProtocolName {
				t.Fatalf("offer %q: status %d, Upgrade %q; want 426 naming %s",
					token, resp.StatusCode, resp.Header.Get("Upgrade"), wire.ProtocolName)
			}
		})
	}
}

// TestWireBatchTraceAssembly is the distributed-tracing e2e: a request
// whose shard work rides the binary wire yields, on GET
// /v1/traces/{id}, ONE assembled span tree under the client's trace ID
// whose nodes come from both sides of the wire — the coordinator's
// http.request / cluster.wire_exchange and the worker's wire.* /
// engine.solve, shipped back in FrameDone. Both wire exchanges are
// covered: a routed /v1/batch (FrameBatch) and an @remote /v1/solve
// (FrameSolve).
func TestWireBatchTraceAssembly(t *testing.T) {
	srv, _ := newWorker(t, 2)
	p := newTestPool(t, []string{srv.URL}, PoolOptions{ProbeInterval: -1})
	ce := newCoordinatorEngine(t, p, 1)
	spans := obs.NewSpanStore(1024)
	coord := httptest.NewServer(service.NewHandlerOpts(ce, service.HandlerOptions{
		Cluster:     p,
		Spans:       spans,
		TraceSample: 1,
	}))
	t.Cleanup(coord.Close)

	const n = 4
	in := gen.Instance(gen.Config{Internal: 6, Clients: 12, Lambda: 0.4, UnitCosts: true}, 37)
	for _, tc := range []struct {
		name, path string
		body       any
		rows       int // result lines, and row frames over the wire
		want       []string
		solves     int // engine.solve spans: worker ones, plus the coordinator's for @remote
	}{
		{
			name: "batch", path: "/v1/batch", body: routedBatchPayload(t, in, "mb@remote", n), rows: n,
			want: []string{
				"http.request", "cluster.route_batch", "cluster.batch_chunk",
				"cluster.wire_exchange", "wire.batch", "engine.solve",
			},
			solves: n,
		},
		{
			name: "solve", path: "/v1/solve", body: map[string]any{"instance": in, "solver": "mb@remote"}, rows: 1,
			want:   []string{"http.request", "cluster.wire_exchange", "wire.solve", "engine.solve"},
			solves: 2,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			trace := "wire-span-e2e-" + tc.name
			rowsBefore := p.ClusterStats().WireRows
			body, err := json.Marshal(tc.body)
			if err != nil {
				t.Fatal(err)
			}
			req, err := http.NewRequest(http.MethodPost, coord.URL+tc.path, bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set(obs.TraceHeader, trace)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				data, _ := io.ReadAll(resp.Body)
				t.Fatalf("%s: status %d: %s", tc.path, resp.StatusCode, data)
			}
			rows := 0
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				var line struct {
					Error string `json:"error"`
					Done  bool   `json:"done"`
				}
				if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
					t.Fatalf("bad response line %q: %v", sc.Text(), err)
				}
				if line.Error != "" {
					t.Fatalf("row error: %s", line.Error)
				}
				if !line.Done {
					rows++
				}
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			if rows != tc.rows {
				t.Fatalf("streamed %d rows, want %d", rows, tc.rows)
			}
			if st := p.ClusterStats(); st.WireRows-rowsBefore != uint64(tc.rows) {
				t.Fatalf("wire stats %+v: the work must travel the binary transport for this test to mean anything", st)
			}

			// The root http.request span ends a hair after the response body: poll.
			type node struct {
				Span     obs.Span `json:"span"`
				Children []node   `json:"children"`
			}
			var tree struct {
				TraceID string `json:"trace_id"`
				Spans   int    `json:"spans"`
				Roots   []node `json:"roots"`
			}
			var names map[string]int
			var walk func(n node)
			walk = func(n node) {
				if n.Span.TraceID != trace {
					t.Fatalf("span %s trace = %q, want %q", n.Span.Name, n.Span.TraceID, trace)
				}
				names[n.Span.Name]++
				for _, c := range n.Children {
					walk(c)
				}
			}
			deadline := time.Now().Add(10 * time.Second)
			for {
				getJSON(t, coord.URL+"/v1/traces/"+trace, &tree)
				names = map[string]int{}
				for _, r := range tree.Roots {
					walk(r)
				}
				complete := len(tree.Roots) == 1 && tree.Roots[0].Span.Name == "http.request"
				for _, w := range tc.want {
					if names[w] == 0 {
						complete = false
					}
				}
				if complete {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("trace never assembled: %d roots, names %v (want one http.request root containing %v)",
						len(tree.Roots), names, tc.want)
				}
				time.Sleep(10 * time.Millisecond)
			}
			if tree.TraceID != trace {
				t.Fatalf("trace_id = %q, want %q", tree.TraceID, trace)
			}
			if names["engine.solve"] != tc.solves {
				t.Fatalf("engine.solve spans = %d, want %d", names["engine.solve"], tc.solves)
			}
			total := 0
			for _, c := range names {
				total += c
			}
			if tree.Spans != total {
				t.Fatalf("payload reports %d spans, tree holds %d", tree.Spans, total)
			}

			// The flight-recorder index lists the trace, filterable by duration.
			var list struct {
				Traces []struct {
					TraceID string `json:"trace_id"`
					Name    string `json:"name"`
					Spans   int    `json:"spans"`
				} `json:"traces"`
			}
			getJSON(t, coord.URL+"/debug/traces?limit=10", &list)
			found := false
			for _, tr := range list.Traces {
				if tr.TraceID == trace {
					found = true
					if tr.Name != "http.request" {
						t.Fatalf("trace summary names %q, want the root span http.request", tr.Name)
					}
					if tr.Spans != total {
						t.Fatalf("summary counts %d spans, tree holds %d", tr.Spans, total)
					}
				}
			}
			if !found {
				t.Fatalf("/debug/traces does not list %s: %+v", trace, list.Traces)
			}
		})
	}
}
