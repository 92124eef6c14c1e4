package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
)

func newTestServer(t *testing.T) (*httptest.Server, *Engine) {
	t.Helper()
	e := NewEngine(EngineOptions{Workers: 4})
	srv := httptest.NewServer(NewHandler(e))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		e.Close(ctx)
	})
	return srv, e
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
}

func TestHTTPHealthz(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var hp healthPayload
	decodeBody(t, resp, &hp)
	if hp.Status != "ok" || hp.Stats.Workers != 4 {
		t.Errorf("health = %+v", hp)
	}
}

func TestHTTPSolvers(t *testing.T) {
	srv, e := newTestServer(t)
	resp, err := http.Get(srv.URL + "/v1/solvers")
	if err != nil {
		t.Fatal(err)
	}
	var sp solversPayload
	decodeBody(t, resp, &sp)
	if len(sp.Solvers) != len(e.Registry().Solvers()) {
		t.Fatalf("listed %d solvers, registry has %d", len(sp.Solvers), len(e.Registry().Solvers()))
	}
	seen := map[string]bool{}
	for _, s := range sp.Solvers {
		seen[s.Name] = true
		if s.Kind == "" || s.Policy == "" {
			t.Errorf("solver %q missing kind/policy", s.Name)
		}
	}
	for _, want := range []string{"mb", "optimal", "lp-refined-multiple", "mg-bw"} {
		if !seen[want] {
			t.Errorf("missing %q in listing", want)
		}
	}
}

func TestHTTPSolveEndToEnd(t *testing.T) {
	srv, _ := newTestServer(t)
	in := testInstance(t)

	body := map[string]any{
		"instance": in,
		"solver":   "MB",
		"options":  map[string]any{"include_solution": true},
	}
	resp := postJSON(t, srv.URL+"/v1/solve", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var first Response
	decodeBody(t, resp, &first)
	if first.Solver != "mb" || first.Cost <= 0 || first.Cached {
		t.Fatalf("first solve = %+v", first)
	}
	if first.Solution == nil {
		t.Fatal("include_solution ignored")
	}
	if err := first.Solution.Validate(in, core.Multiple); err != nil {
		t.Fatalf("wire solution invalid after round-trip: %v", err)
	}

	// The identical request must come back from the cache.
	resp = postJSON(t, srv.URL+"/v1/solve", body)
	var second Response
	decodeBody(t, resp, &second)
	if !second.Cached || second.Cost != first.Cost {
		t.Fatalf("second solve = %+v, want cached with cost %d", second, first.Cost)
	}
}

// TestHTTPSolveZeroCapacityServers: a valid instance whose root and
// every fourth server have W = S = 0 is answered 200 by MB, MTD and
// MBU, with a placement or no_solution. The engine validates every
// solution, so an overloaded W = 0 server would surface as a 500.
func TestHTTPSolveZeroCapacityServers(t *testing.T) {
	srv, _ := newTestServer(t)
	in := gen.Instance(gen.Config{Internal: 20, Clients: 40, Lambda: 0.4}, 1)
	for i, v := range in.Tree.Internal() {
		if i%4 == 0 || v == in.Tree.Root() {
			in.W[v], in.S[v] = 0, 0
		}
	}
	for _, solver := range []string{"mb", "MTD", "MBU"} {
		resp := postJSON(t, srv.URL+"/v1/solve", map[string]any{"instance": in, "solver": solver})
		var got Response
		decodeBody(t, resp, &got)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", solver, resp.StatusCode)
		}
		if !got.NoSolution && got.ReplicaCount == 0 {
			t.Fatalf("%s: neither a placement nor no_solution: %+v", solver, got)
		}
	}
}

func TestHTTPSolveFamilyAndPolicy(t *testing.T) {
	srv, _ := newTestServer(t)
	resp := postJSON(t, srv.URL+"/v1/solve", map[string]any{
		"instance": testInstance(t), "solver": "brute", "policy": "upwards",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var r Response
	decodeBody(t, resp, &r)
	if r.Solver != "brute-upwards" || r.Policy != "Upwards" {
		t.Errorf("resolved %q/%q", r.Solver, r.Policy)
	}
}

func TestHTTPSolveErrors(t *testing.T) {
	srv, _ := newTestServer(t)
	in := testInstance(t)

	resp := postJSON(t, srv.URL+"/v1/solve", map[string]any{"instance": in, "solver": "nope"})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown solver: status %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()

	resp = postJSON(t, srv.URL+"/v1/solve", map[string]any{"instance": in})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing solver: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	resp = postJSON(t, srv.URL+"/v1/solve", map[string]any{"instance": in, "solver": "mb", "policy": "sideways"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad policy: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	r, err := http.Post(srv.URL+"/v1/solve", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("bad body: status %d, want 400", r.StatusCode)
	}
	r.Body.Close()
}

func TestHTTPBound(t *testing.T) {
	srv, _ := newTestServer(t)
	in := testInstance(t)

	// Default method is the refined bound.
	resp := postJSON(t, srv.URL+"/v1/bound", map[string]any{"instance": in, "policy": "Multiple"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var refined Response
	decodeBody(t, resp, &refined)
	if refined.Solver != "lp-refined-multiple" || refined.Bound == nil || refined.Bound.Value <= 0 {
		t.Fatalf("refined bound = %+v", refined)
	}

	resp = postJSON(t, srv.URL+"/v1/bound", map[string]any{"instance": in, "solver": "rational", "policy": "Multiple"})
	var rational Response
	decodeBody(t, resp, &rational)
	if rational.Bound == nil || !rational.Bound.Exact {
		t.Fatalf("rational bound = %+v", rational)
	}
	// The refined bound dominates the rational relaxation.
	if refined.Bound.Value < rational.Bound.Value-1e-9 {
		t.Errorf("refined %v below rational %v", refined.Bound.Value, rational.Bound.Value)
	}
}

func TestHTTPGenerate(t *testing.T) {
	srv, _ := newTestServer(t)
	resp := postJSON(t, srv.URL+"/v1/generate", map[string]any{
		"config": map[string]any{"Internal": 6, "Clients": 12, "Lambda": 0.4, "UnitCosts": true},
		"seed":   3,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var gp generatePayload
	decodeBody(t, resp, &gp)
	if gp.Instance == nil || gp.Vertices != 18 || gp.Load <= 0 {
		t.Fatalf("generate = vertices %d load %v", gp.Vertices, gp.Load)
	}
	if err := gp.Instance.Validate(); err != nil {
		t.Fatalf("generated instance invalid after round-trip: %v", err)
	}

	// The generated instance must be directly solvable via /v1/solve.
	resp = postJSON(t, srv.URL+"/v1/solve", map[string]any{"instance": gp.Instance, "solver": "optimal"})
	var r Response
	decodeBody(t, resp, &r)
	if r.NoSolution || r.Cost <= 0 {
		t.Fatalf("generated instance unsolvable: %+v", r)
	}
}

func TestHTTPCampaignStreams(t *testing.T) {
	srv, _ := newTestServer(t)
	resp := postJSON(t, srv.URL+"/v1/campaign", map[string]any{
		"config": map[string]any{
			"Lambdas":        []float64{0.2, 0.5},
			"TreesPerLambda": 2,
			"MinSize":        15,
			"MaxSize":        20,
			"Seed":           5,
			"BoundNodes":     10,
		},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	var rows []campaignRow
	var done campaignDone
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"done"`)) {
			if err := json.Unmarshal(line, &done); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var row campaignRow
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || !done.Done || done.Rows != 2 {
		t.Fatalf("streamed %d rows, done=%+v", len(rows), done)
	}
	for i, want := range []float64{0.2, 0.5} {
		if rows[i].Lambda != want || rows[i].Trees != 2 {
			t.Errorf("row %d = %+v", i, rows[i])
		}
	}
}

func TestHTTPMethodNotAllowed(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Get(srv.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/solve: status %d, want 405", resp.StatusCode)
	}
	r2 := postJSON(t, srv.URL+"/healthz", map[string]any{})
	r2.Body.Close()
	if r2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /healthz: status %d, want 405", r2.StatusCode)
	}
}

// TestHTTPConcurrentSolves drives the acceptance criterion through the
// HTTP layer: concurrent identical requests are all answered, with the
// backend computing at most once (single-flight + cache).
func TestHTTPConcurrentSolves(t *testing.T) {
	srv, e := newTestServer(t)
	in := testInstance(t)
	data, err := json.Marshal(map[string]any{"instance": in, "solver": "optimal"})
	if err != nil {
		t.Fatal(err)
	}

	const parallel = 12
	errs := make(chan error, parallel)
	for i := 0; i < parallel; i++ {
		go func() {
			resp, err := http.Post(srv.URL+"/v1/solve", "application/json", bytes.NewReader(data))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var r Response
			if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK || r.Cost <= 0 {
				errs <- fmt.Errorf("status %d resp %+v", resp.StatusCode, r)
				return
			}
			errs <- nil
		}()
	}
	for i := 0; i < parallel; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.Computations != 1 {
		t.Errorf("computations = %d, want 1", st.Computations)
	}
}

// TestHTTPWorkerPing: the lightweight probe a coordinator's shard pool
// polls is always registered and answers with live gauges.
func TestHTTPWorkerPing(t *testing.T) {
	srv, e := newTestServer(t)
	resp, err := http.Get(srv.URL + "/v1/worker/ping")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ping: status %d", resp.StatusCode)
	}
	var ping pingPayload
	decodeBody(t, resp, &ping)
	if ping.Status != "ok" || ping.Workers != e.Stats().Workers {
		t.Fatalf("ping = %+v", ping)
	}
}
