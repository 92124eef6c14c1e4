package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/jobs"
)

// slowAppendStore delays each row append, widening the window in which
// a running job can be interrupted.
type slowAppendStore struct {
	jobs.Store
	delay time.Duration
}

func (s slowAppendStore) AppendRow(id string, row json.RawMessage) error {
	time.Sleep(s.delay)
	return s.Store.AppendRow(id, row)
}

func newJobsServer(t *testing.T, e *Engine, store jobs.Store) (*httptest.Server, *jobs.Manager) {
	t.Helper()
	m, err := jobs.NewManager(jobs.Options{Store: store, Workers: 1},
		jobs.CampaignKind(), BatchJobKind(e, nil))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandlerOpts(e, HandlerOptions{Jobs: m}))
	return srv, m
}

func closeJobs(t *testing.T, m *jobs.Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatalf("closing manager: %v", err)
	}
}

func getJob(t *testing.T, url, id string) (jobInfo, []json.RawMessage) {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("GET job: status %d: %s", resp.StatusCode, body)
	}
	var jp jobPayload
	decodeBody(t, resp, &jp)
	return jp.Job, jp.Rows
}

func pollJob(t *testing.T, url, id string, done func(jobInfo, []json.RawMessage) bool) (jobInfo, []json.RawMessage) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		info, rows := getJob(t, url, id)
		if done(info, rows) {
			return info, rows
		}
		if info.State == string(jobs.StateFailed) {
			t.Fatalf("job failed: %s", info.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job never reached the polled condition")
	return jobInfo{}, nil
}

// TestHTTPJobsCampaignResumeAcrossRestart is the acceptance e2e: a
// campaign submitted via POST /v1/jobs over a file-backed store
// survives a simulated daemon restart (server + manager torn down, new
// ones opened over the same directory), resumes from its last completed
// λ, and serves a final result identical to an uninterrupted run.
func TestHTTPJobsCampaignResumeAcrossRestart(t *testing.T) {
	cfg := experiments.Config{
		Lambdas:        []float64{0.1, 0.3, 0.5, 0.7, 0.9},
		TreesPerLambda: 2,
		MinSize:        15,
		MaxSize:        25,
		Seed:           7,
		BoundNodes:     10,
	}
	direct, err := experiments.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	fs, err := jobs.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(EngineOptions{Workers: 4})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		e.Close(ctx)
	})

	// "Daemon" #1: slow row appends so the shutdown lands mid-campaign.
	srv1, m1 := newJobsServer(t, e, slowAppendStore{fs, 250 * time.Millisecond})
	resp := postJSON(t, srv1.URL+"/v1/jobs", map[string]any{"campaign": cfg})
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var submitted jobPayload
	decodeBody(t, resp, &submitted)
	id := submitted.Job.ID
	if id == "" || submitted.Job.Kind != "campaign" || submitted.Job.RowsTotal != len(cfg.Lambdas) {
		t.Fatalf("submitted = %+v", submitted.Job)
	}

	pollJob(t, srv1.URL, id, func(info jobInfo, rows []json.RawMessage) bool {
		return info.RowsDone >= 1
	})

	// Simulated restart: server down, manager checkpoints, new manager
	// and server over the same directory.
	srv1.Close()
	closeJobs(t, m1)
	stored, ok, err := fs.Get(id)
	if err != nil || !ok {
		t.Fatalf("job not in store after shutdown: ok=%v err=%v", ok, err)
	}
	if stored.State != jobs.StateInterrupted {
		t.Fatalf("state after shutdown = %s", stored.State)
	}
	checkpointed := stored.RowsDone
	if checkpointed < 1 || checkpointed >= len(cfg.Lambdas) {
		t.Fatalf("checkpointed %d rows, want a strict subset >= 1", checkpointed)
	}

	srv2, m2 := newJobsServer(t, e, fs)
	defer srv2.Close()
	defer closeJobs(t, m2)

	// The restarted daemon lists the job immediately.
	lresp, err := http.Get(srv2.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list jobListPayload
	decodeBody(t, lresp, &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != id {
		t.Fatalf("list after restart = %+v", list.Jobs)
	}

	final, rows := pollJob(t, srv2.URL, id, func(info jobInfo, rows []json.RawMessage) bool {
		return info.State == string(jobs.StateSucceeded)
	})
	if final.Resumes != 1 {
		t.Fatalf("resumes = %d, want 1", final.Resumes)
	}
	if final.Progress != 1 || final.RowsDone != len(cfg.Lambdas) || len(rows) != len(cfg.Lambdas) {
		t.Fatalf("final = %+v with %d rows", final, len(rows))
	}

	// The resumed rows must be exactly an uninterrupted run's rows.
	got, err := jobs.CampaignRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	directJSON, err := json.Marshal(direct.Rows)
	if err != nil {
		t.Fatal(err)
	}
	var want []experiments.Row
	if err := json.Unmarshal(directJSON, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed rows differ from uninterrupted run:\ngot  %+v\nwant %+v", got, want)
	}

	// Result endpoint: JSON and CSV, the latter matching WriteCSV of the
	// uninterrupted run.
	rresp, err := http.Get(srv2.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var result jobPayload
	decodeBody(t, rresp, &result)
	if len(result.Rows) != len(cfg.Lambdas) {
		t.Fatalf("result rows = %d", len(result.Rows))
	}

	cresp, err := http.Get(srv2.URL + "/v1/jobs/" + id + "/result?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	if ct := cresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Errorf("csv content type = %q", ct)
	}
	csv, err := io.ReadAll(cresp.Body)
	cresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var wantCSV strings.Builder
	if err := direct.WriteCSV(&wantCSV); err != nil {
		t.Fatal(err)
	}
	if string(csv) != wantCSV.String() {
		t.Fatalf("CSV differs from uninterrupted run:\ngot:\n%s\nwant:\n%s", csv, wantCSV.String())
	}

	// DELETE removes the finished job from manager and store.
	dreq, _ := http.NewRequest(http.MethodDelete, srv2.URL+"/v1/jobs/"+id, nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", dresp.StatusCode)
	}
	if g, err := http.Get(srv2.URL + "/v1/jobs/" + id); err != nil {
		t.Fatal(err)
	} else {
		g.Body.Close()
		if g.StatusCode != http.StatusNotFound {
			t.Fatalf("deleted job still answers %d", g.StatusCode)
		}
	}
	if _, ok, _ := fs.Get(id); ok {
		t.Fatal("deleted job still on disk")
	}
}

// TestHTTPJobsBatch runs a batch-solve as an async job and checks the
// per-variation rows cover every index.
func TestHTTPJobsBatch(t *testing.T) {
	e := NewEngine(EngineOptions{Workers: 4})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		e.Close(ctx)
	})
	srv, m := newJobsServer(t, e, jobs.NewMemStore())
	defer srv.Close()
	defer closeJobs(t, m)

	in := gen.Instance(gen.Config{Internal: 6, Clients: 12, Lambda: 0.4, UnitCosts: true}, 3)
	variations := []map[string]any{{}, {"requests": bump(in.R, 1)}, {"requests": bump(in.R, 2)}}
	resp := postJSON(t, srv.URL+"/v1/jobs", map[string]any{
		"batch": map[string]any{
			"topology":   map[string]any{"parents": in.Tree.Parents(), "is_client": in.Tree.ClientFlags()},
			"solver":     "mb",
			"base":       map[string]any{"requests": in.R, "capacities": in.W, "storage_costs": in.S},
			"variations": variations,
		},
	})
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("submit batch: status %d: %s", resp.StatusCode, body)
	}
	var submitted jobPayload
	decodeBody(t, resp, &submitted)
	if submitted.Job.Kind != BatchKindName || submitted.Job.RowsTotal != len(variations) {
		t.Fatalf("submitted = %+v", submitted.Job)
	}

	_, rows := pollJob(t, srv.URL, submitted.Job.ID, func(info jobInfo, rows []json.RawMessage) bool {
		return info.State == string(jobs.StateSucceeded)
	})
	seen := map[int]bool{}
	for _, raw := range rows {
		var line BatchLine
		if err := json.Unmarshal(raw, &line); err != nil {
			t.Fatalf("bad row %s: %v", raw, err)
		}
		if line.Error != "" {
			t.Fatalf("variation %d failed: %s", line.Index, line.Error)
		}
		if line.Response == nil || line.Cost <= 0 {
			t.Fatalf("variation %d: %+v", line.Index, line.Response)
		}
		seen[line.Index] = true
	}
	if len(seen) != len(variations) {
		t.Fatalf("rows cover %d of %d variations", len(seen), len(variations))
	}
}

func bump(r []int64, by int64) []int64 {
	out := append([]int64(nil), r...)
	for i := range out {
		if out[i] > 0 {
			out[i] += by
		}
	}
	return out
}

func TestHTTPJobsSubmitErrors(t *testing.T) {
	e := NewEngine(EngineOptions{Workers: 1})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		e.Close(ctx)
	})
	srv, m := newJobsServer(t, e, jobs.NewMemStore())
	defer srv.Close()
	defer closeJobs(t, m)

	for name, body := range map[string]map[string]any{
		"empty":           {},
		"both payloads":   {"campaign": map[string]any{}, "batch": map[string]any{"solver": "mb"}},
		"unknown kind":    {"kind": "nope", "campaign": map[string]any{}},
		"kind no body":    {"kind": "campaign"},
		"bad config":      {"campaign": map[string]any{"Nope": 1}},
		"bad batch":       {"batch": map[string]any{"solver": "nope", "topology": map[string]any{"parents": []int{-1}, "is_client": []bool{false}}, "variations": []map[string]any{{}}}},
		"campaign resume": {"campaign": map[string]any{"StartRow": 3}},
	} {
		resp := postJSON(t, srv.URL+"/v1/jobs", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}

	// Unknown id paths.
	for _, path := range []string{"/v1/jobs/jnope", "/v1/jobs/jnope/result"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestHTTPJobsCancel(t *testing.T) {
	e := NewEngine(EngineOptions{Workers: 2})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		e.Close(ctx)
	})
	// Slow appends keep the campaign running long enough to cancel.
	srv, m := newJobsServer(t, e, slowAppendStore{jobs.NewMemStore(), 200 * time.Millisecond})
	defer srv.Close()
	defer closeJobs(t, m)

	resp := postJSON(t, srv.URL+"/v1/jobs", map[string]any{"campaign": map[string]any{
		"Lambdas": []float64{0.1, 0.3, 0.5, 0.7, 0.9}, "TreesPerLambda": 2,
		"MinSize": 15, "MaxSize": 25, "Seed": 3, "BoundNodes": 10,
	}})
	var submitted jobPayload
	decodeBody(t, resp, &submitted)
	id := submitted.Job.ID

	pollJob(t, srv.URL, id, func(info jobInfo, rows []json.RawMessage) bool {
		return info.State == string(jobs.StateRunning)
	})
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+id, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: status %d, want 202", dresp.StatusCode)
	}
	final, _ := pollJob(t, srv.URL, id, func(info jobInfo, rows []json.RawMessage) bool {
		return info.State == string(jobs.StateCanceled)
	})
	if final.FinishedAt.IsZero() {
		t.Fatalf("canceled job without FinishedAt: %+v", final)
	}

	// A fresh submission still runs: the worker was reclaimed.
	resp = postJSON(t, srv.URL+"/v1/jobs", map[string]any{"campaign": map[string]any{
		"Lambdas": []float64{0.2}, "TreesPerLambda": 1, "MinSize": 15, "MaxSize": 18,
		"Seed": 3, "BoundNodes": 5,
	}})
	var second jobPayload
	decodeBody(t, resp, &second)
	pollJob(t, srv.URL, second.Job.ID, func(info jobInfo, rows []json.RawMessage) bool {
		return info.State == string(jobs.StateSucceeded)
	})
}

func TestHTTPJobsDisabled(t *testing.T) {
	srv, _ := newTestServer(t) // NewHandler: no job manager
	for _, probe := range []struct{ method, path string }{
		{http.MethodPost, "/v1/jobs"},
		{http.MethodGet, "/v1/jobs"},
		{http.MethodGet, "/v1/jobs/j123"},
		{http.MethodDelete, "/v1/jobs/j123"},
	} {
		req, _ := http.NewRequest(probe.method, srv.URL+probe.path, strings.NewReader("{}"))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotImplemented {
			t.Errorf("%s %s: status %d, want 501", probe.method, probe.path, resp.StatusCode)
		}
	}
}

// TestHTTPCampaignSaturated: with every inline slot held, /v1/campaign
// sheds load with 503 + Retry-After instead of queueing, and recovers
// once a slot frees up.
func TestHTTPCampaignSaturated(t *testing.T) {
	e := NewEngine(EngineOptions{Workers: 2})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		e.Close(ctx)
	})
	a := newAPI(e, HandlerOptions{MaxInlineCampaigns: 1})
	srv := httptest.NewServer(a.routes())
	defer srv.Close()

	a.campaignSem <- struct{}{} // occupy the only slot
	body := map[string]any{"config": map[string]any{
		"Lambdas": []float64{0.2}, "TreesPerLambda": 1, "MinSize": 15, "MaxSize": 18,
		"Seed": 5, "BoundNodes": 5,
	}}
	resp := postJSON(t, srv.URL+"/v1/campaign", body)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated campaign: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != fmt.Sprint(campaignRetryAfter) {
		t.Fatalf("Retry-After = %q", ra)
	}

	<-a.campaignSem // free the slot
	resp = postJSON(t, srv.URL+"/v1/campaign", body)
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), `"done"`) {
		t.Fatalf("freed campaign: status %d body %s", resp.StatusCode, data)
	}
}

// TestHTTPJobListPagination: ?limit=&after= walks the listing in stable
// (CreatedAt, ID) order with a "next" cursor, covering every job exactly
// once, and stays coherent when the cursor job is deleted mid-walk.
func TestHTTPJobListPagination(t *testing.T) {
	e := NewEngine(EngineOptions{Workers: 2})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		e.Close(ctx)
	})
	srv, m := newJobsServer(t, e, jobs.NewMemStore())
	defer srv.Close()
	defer closeJobs(t, m)

	const n = 5
	var ids []string
	for i := 0; i < n; i++ {
		resp := postJSON(t, srv.URL+"/v1/jobs", map[string]any{"campaign": map[string]any{
			"Lambdas": []float64{0.2}, "TreesPerLambda": 1, "MinSize": 15, "MaxSize": 18,
			"Seed": int64(i + 1), "BoundNodes": 5,
		}})
		var submitted jobPayload
		decodeBody(t, resp, &submitted)
		ids = append(ids, submitted.Job.ID)
	}
	for _, id := range ids {
		pollJob(t, srv.URL, id, func(info jobInfo, rows []json.RawMessage) bool {
			return info.State == string(jobs.StateSucceeded)
		})
	}

	list := func(query string) jobListPayload {
		resp, err := http.Get(srv.URL + "/v1/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("list %s: status %d: %s", query, resp.StatusCode, body)
		}
		var out jobListPayload
		decodeBody(t, resp, &out)
		return out
	}

	// No limit: everything, submission order, no cursor.
	full := list("")
	if len(full.Jobs) != n || full.Next != "" {
		t.Fatalf("unpaginated list = %d jobs, next %q", len(full.Jobs), full.Next)
	}
	for i, j := range full.Jobs {
		if j.ID != ids[i] {
			t.Fatalf("list order: position %d = %s, want %s", i, j.ID, ids[i])
		}
	}

	// Paged walk: 2 + 2 + 1, cursors in between, then exhausted.
	var walked []string
	page := list("?limit=2")
	for {
		for _, j := range page.Jobs {
			walked = append(walked, j.ID)
		}
		if page.Next == "" {
			break
		}
		if len(page.Jobs) != 2 {
			t.Fatalf("non-final page has %d jobs", len(page.Jobs))
		}
		page = list("?limit=2&after=" + page.Next)
	}
	if !reflect.DeepEqual(walked, ids) {
		t.Fatalf("paged walk = %v, want %v", walked, ids)
	}

	// Deleting the cursor job must not break the walk: the cursor
	// encodes the sort key, not the record.
	first := list("?limit=2")
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+first.Jobs[1].ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	rest := list("?limit=10&after=" + first.Next)
	if len(rest.Jobs) != n-2 || rest.Jobs[0].ID != ids[2] {
		t.Fatalf("walk after cursor deletion = %+v", rest.Jobs)
	}

	// Malformed paging parameters are rejected.
	for _, q := range []string{"?limit=-1", "?limit=x", "?after=bogus", "?after=12z~j1"} {
		resp, err := http.Get(srv.URL + "/v1/jobs" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}
