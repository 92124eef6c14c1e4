package cluster

import (
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
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/service"
)

// TestTracePropagatesEndToEnd is the tracing propagation e2e: one
// trace ID, supplied by the client of a coordinator, is (1) echoed on
// the coordinator's HTTP response, (2) recorded on the job manifest and
// on every event of the job's timeline, and (3) delivered to the worker
// shards as the FlagTraced frame prefix of the binary wire (observed
// through the workers' span stores, since no HTTP request exists
// there).
func TestTracePropagatesEndToEnd(t *testing.T) {
	t.Run("wire", testTracePropagation)
}

func testTracePropagation(t *testing.T) {
	const trace = "e2e-trace-0042"

	// Two worker shards, each with the binary transport and its own
	// flight recorder.
	var stores [2]*obs.SpanStore
	var addrs []string
	for i := range stores {
		e := service.NewEngine(service.EngineOptions{Workers: 2})
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			e.Close(ctx)
		})
		ws := wire.NewServer(e, nil)
		stores[i] = obs.NewSpanStore(256)
		ws.Spans = stores[i]
		t.Cleanup(func() { ws.Close() })
		srv := httptest.NewServer(service.NewHandlerOpts(e, service.HandlerOptions{MaxInlineCampaigns: -1, Wire: ws}))
		t.Cleanup(srv.Close)
		addrs = append(addrs, srv.URL)
	}
	p := newTestPool(t, addrs, PoolOptions{ProbeInterval: -1})

	// Coordinator: remote-twin registry, sharded job kinds, HTTP surface.
	reg := service.NewRegistry()
	if err := RegisterRemote(reg, p); err != nil {
		t.Fatal(err)
	}
	ce := service.NewEngine(service.EngineOptions{Workers: 1, Registry: reg})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		ce.Close(ctx)
	})
	m, err := jobs.NewManager(jobs.Options{Workers: 1}, Kinds(ce, p)...)
	if err != nil {
		t.Fatal(err)
	}
	defer closeManager(t, m)
	coord := httptest.NewServer(service.NewHandlerOpts(ce, service.HandlerOptions{
		Jobs:    m,
		Cluster: p,
	}))
	defer coord.Close()

	// Submit a sharded batch job with an explicit trace ID.
	in := gen.Instance(gen.Config{Internal: 5, Clients: 10, Lambda: 0.4, UnitCosts: true}, 3)
	vars := make([]map[string]any, 6)
	for i := range vars {
		r := append([]int64(nil), in.R...)
		for j := range r {
			if r[j] > 0 {
				r[j] += int64(i % 2)
			}
		}
		vars[i] = map[string]any{"requests": r}
	}
	body, err := json.Marshal(map[string]any{"batch": map[string]any{
		"topology":   map[string]any{"parents": in.Tree.Parents(), "is_client": in.Tree.ClientFlags()},
		"solver":     "MB@remote",
		"base":       map[string]any{"requests": in.R, "capacities": in.W, "storage_costs": in.S},
		"variations": vars,
	}})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, coord.URL+"/v1/jobs", bytes.NewReader(body))
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
	if resp.StatusCode != http.StatusAccepted {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, data)
	}
	// (1) The coordinator echoes the client's trace ID on the response.
	if got := resp.Header.Get(obs.TraceHeader); got != trace {
		t.Fatalf("response %s = %q, want %q", obs.TraceHeader, got, trace)
	}
	var submitted struct {
		Job struct {
			ID      string `json:"id"`
			TraceID string `json:"trace_id"`
		} `json:"job"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
		t.Fatal(err)
	}
	// (2a) The job manifest carries the trace ID.
	if submitted.Job.TraceID != trace {
		t.Fatalf("manifest trace_id = %q, want %q", submitted.Job.TraceID, trace)
	}
	id := submitted.Job.ID

	// Wait for the job over HTTP, like a real client.
	deadline := time.Now().Add(60 * time.Second)
	var state string
	for time.Now().Before(deadline) {
		var status struct {
			Job struct {
				State   string `json:"state"`
				Error   string `json:"error"`
				TraceID string `json:"trace_id"`
			} `json:"job"`
		}
		getJSON(t, coord.URL+"/v1/jobs/"+id, &status)
		state = status.Job.State
		if state == "succeeded" {
			if status.Job.TraceID != trace {
				t.Fatalf("finished manifest trace_id = %q, want %q", status.Job.TraceID, trace)
			}
			break
		}
		if state == "failed" || state == "canceled" {
			t.Fatalf("job reached %s: %s", state, status.Job.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if state != "succeeded" {
		t.Fatalf("job never succeeded (last state %s)", state)
	}

	// (2b) Every event of the persisted timeline carries the trace ID,
	// and the sharded kind logged per-chunk dispatch events.
	var timeline struct {
		Events []jobs.Event `json:"events"`
	}
	getJSON(t, coord.URL+"/v1/jobs/"+id+"/events", &timeline)
	if len(timeline.Events) == 0 {
		t.Fatal("job finished with an empty timeline")
	}
	dispatches := 0
	for _, ev := range timeline.Events {
		if ev.TraceID != trace {
			t.Fatalf("event %s (%s) trace = %q, want %q", ev.Type, ev.Detail, ev.TraceID, trace)
		}
		if ev.Type == jobs.EventDispatch {
			dispatches++
		}
	}
	if dispatches == 0 {
		t.Fatalf("no dispatch events in timeline: %+v", timeline.Events)
	}
	first, last := timeline.Events[0], timeline.Events[len(timeline.Events)-1]
	if first.Type != jobs.EventQueued || last.Type != jobs.EventFinished {
		t.Fatalf("timeline bounds = %s..%s, want queued..finished", first.Type, last.Type)
	}

	// (3) The shards saw the same trace ID on their batch chunks: it
	// rides the FlagTraced frame prefix, and the proof it arrived is the
	// worker-side wire.batch spans recorded under the client's ID.
	recorded := 0
	for i, store := range stores {
		for _, sp := range store.TraceSpans(trace) {
			if sp.TraceID != trace {
				t.Fatalf("worker %d span %s trace = %q, want %q", i, sp.Name, sp.TraceID, trace)
			}
			if sp.Name == "wire.batch" {
				recorded++
			}
		}
	}
	if recorded == 0 {
		t.Fatal("no worker recorded a wire.batch span under the client's trace ID")
	}
	if st := p.ClusterStats(); st.WireRows == 0 {
		t.Fatalf("cluster stats %+v claim no rows crossed the wire", st)
	}

	// Bonus contract checks: an error response carries the trace ID in
	// its JSON body, and a malformed client trace is replaced by a fresh
	// generated one rather than echoed.
	nreq, _ := http.NewRequest(http.MethodGet, coord.URL+"/v1/jobs/nosuchjob", nil)
	nreq.Header.Set(obs.TraceHeader, trace)
	nresp, err := http.DefaultClient.Do(nreq)
	if err != nil {
		t.Fatal(err)
	}
	var errBody struct {
		Error   string `json:"error"`
		TraceID string `json:"trace_id"`
	}
	if err := json.NewDecoder(nresp.Body).Decode(&errBody); err != nil {
		t.Fatal(err)
	}
	nresp.Body.Close()
	if nresp.StatusCode != http.StatusNotFound || errBody.Error == "" {
		t.Fatalf("lookup of missing job: status %d, body error %q", nresp.StatusCode, errBody.Error)
	}
	if errBody.TraceID != trace {
		t.Fatalf("error body trace_id = %q, want %q", errBody.TraceID, trace)
	}

	breq, _ := http.NewRequest(http.MethodGet, coord.URL+"/healthz", nil)
	breq.Header.Set(obs.TraceHeader, "bad id with spaces!")
	bresp, err := http.DefaultClient.Do(breq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, bresp.Body)
	bresp.Body.Close()
	got := bresp.Header.Get(obs.TraceHeader)
	if got == "" || got == "bad id with spaces!" {
		t.Fatalf("malformed client trace answered with %q, want a fresh generated ID", got)
	}
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, data)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}
