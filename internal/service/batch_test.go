package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/heuristics"
)

// batchBase builds a base instance plus n request-vector variations of
// its topology.
func batchBase(t *testing.T, n int) (*core.Instance, []BatchVariation) {
	t.Helper()
	in := gen.Instance(gen.Config{Internal: 12, Clients: 24, Lambda: 0.4, UnitCosts: true}, 5)
	vars := make([]BatchVariation, n)
	for i := range vars {
		r := append([]int64(nil), in.R...)
		for _, c := range in.Tree.Clients() {
			r[c] = r[c] + int64(i%3) // three distinct demand profiles
		}
		vars[i] = BatchVariation{R: r}
	}
	return in, vars
}

func TestSolveBatchMatchesSingleSolves(t *testing.T) {
	e := newTestEngine(t, EngineOptions{Workers: 4})
	in, vars := batchBase(t, 9)

	var mu sync.Mutex
	got := map[int]*Response{}
	err := e.SolveBatch(context.Background(), BatchRequest{
		Base: in, Solver: "mb", Variations: vars,
	}, func(item BatchItem) {
		if item.Err != nil {
			t.Errorf("variation %d: %v", item.Index, item.Err)
			return
		}
		mu.Lock()
		got[item.Index] = item.Response
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("SolveBatch: %v", err)
	}
	if len(got) != len(vars) {
		t.Fatalf("delivered %d of %d items", len(got), len(vars))
	}
	for i, v := range vars {
		single, err := e.Solve(context.Background(), Request{
			Instance: v.instance(in), Solver: "mb",
			Options: Options{NoCache: true},
		})
		if err != nil {
			t.Fatalf("single solve %d: %v", i, err)
		}
		if got[i].Cost != single.Cost || got[i].ReplicaCount != single.ReplicaCount {
			t.Errorf("variation %d: batch cost %d/%d, single %d/%d",
				i, got[i].Cost, got[i].ReplicaCount, single.Cost, single.ReplicaCount)
		}
	}
}

func TestSolveBatchValidation(t *testing.T) {
	e := newTestEngine(t, EngineOptions{Workers: 2})
	in, vars := batchBase(t, 2)
	ctx := context.Background()

	if err := e.SolveBatch(ctx, BatchRequest{Solver: "mb", Variations: vars}, nil); err == nil {
		t.Error("want error for missing base")
	}
	if err := e.SolveBatch(ctx, BatchRequest{Base: in, Solver: "mb"}, nil); err == nil {
		t.Error("want error for no variations")
	}
	if err := e.SolveBatch(ctx, BatchRequest{Base: in, Solver: "nope", Variations: vars}, nil); err == nil {
		t.Error("want error for unknown solver")
	}
	// A malformed variation fails as an item, not as the batch.
	bad := []BatchVariation{{R: []int64{1}}}
	var items []BatchItem
	err := e.SolveBatch(ctx, BatchRequest{Base: in, Solver: "mb", Variations: bad},
		func(item BatchItem) { items = append(items, item) })
	if err != nil {
		t.Fatalf("SolveBatch: %v", err)
	}
	if len(items) != 1 || items[0].Err == nil {
		t.Fatalf("items = %+v, want one failed item", items)
	}
}

func TestInternTreeReuses(t *testing.T) {
	e := newTestEngine(t, EngineOptions{Workers: 1})
	in := gen.Instance(gen.Config{Internal: 8, Clients: 16, Lambda: 0.3, UnitCosts: true}, 7)
	parents, flags := in.Tree.Parents(), in.Tree.ClientFlags()

	t1, err := e.InternTree(parents, flags)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := e.InternTree(parents, flags)
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Error("same shape interned to different trees")
	}
	st := e.Stats()
	if st.TreeCacheHits != 1 || st.TreeCacheMisses != 1 || st.TreeCacheEntries != 1 {
		t.Errorf("tree cache stats = %d hits / %d misses / %d entries, want 1/1/1",
			st.TreeCacheHits, st.TreeCacheMisses, st.TreeCacheEntries)
	}
	if _, err := e.InternTree([]int{0, 0}, []bool{false, true}); err == nil {
		t.Error("want error for invalid shape (self-parent)")
	}
}

func TestPerSolverCacheStats(t *testing.T) {
	e := newTestEngine(t, EngineOptions{Workers: 2})
	in := gen.Instance(gen.Config{Internal: 8, Clients: 16, Lambda: 0.3, UnitCosts: true}, 11)
	ctx := context.Background()
	req := Request{Instance: in, Solver: "MG"}
	if _, err := e.Solve(ctx, req); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Solve(ctx, req); err != nil {
		t.Fatal(err)
	}
	st := e.SolverCacheStats("mg")
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("mg cache stats = %+v, want 1 miss, 1 hit", st)
	}
	if other := e.SolverCacheStats("mb"); other != (SolverCacheStats{}) {
		t.Errorf("mb cache stats = %+v, want zero", other)
	}
	if got := e.Stats().PerSolver["mg"]; got != st {
		t.Errorf("Stats().PerSolver[mg] = %+v, want %+v", got, st)
	}
}

func TestHTTPBatchStreams(t *testing.T) {
	srv, e := newTestServer(t)
	in, vars := batchBase(t, 6)

	body := map[string]any{
		"topology": map[string]any{
			"parents":   in.Tree.Parents(),
			"is_client": in.Tree.ClientFlags(),
		},
		"solver":     "mb",
		"base":       map[string]any{"requests": in.R, "capacities": in.W, "storage_costs": in.S},
		"variations": vars,
	}
	resp := postJSON(t, srv.URL+"/v1/batch", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Errorf("content type %q", ct)
	}
	seen := map[int]bool{}
	done := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line struct {
			Index int    `json:"index"`
			Cost  int64  `json:"cost"`
			Error string `json:"error"`
			Done  bool   `json:"done"`
			Items int    `json:"items"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if line.Done {
			done = true
			if line.Items != len(vars) {
				t.Errorf("done.items = %d, want %d", line.Items, len(vars))
			}
			break
		}
		if line.Error != "" {
			t.Errorf("variation %d failed: %s", line.Index, line.Error)
		}
		seen[line.Index] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !done || len(seen) != len(vars) {
		t.Fatalf("stream: done=%v, %d/%d items", done, len(seen), len(vars))
	}
	// The batch interned its topology.
	if st := e.Stats(); st.TreeCacheEntries == 0 {
		t.Error("batch did not intern the topology")
	}
}

func TestHTTPBatchRejects(t *testing.T) {
	srv, _ := newTestServer(t)
	resp := postJSON(t, srv.URL+"/v1/batch", map[string]any{"solver": ""})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing solver: status %d", resp.StatusCode)
	}
	resp = postJSON(t, srv.URL+"/v1/batch", map[string]any{
		"solver":   "mb",
		"topology": map[string]any{"parents": []int{0}, "is_client": []bool{false}},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad topology: status %d", resp.StatusCode)
	}
	// A body outside the one-pass decoder's subset is still judged, and
	// its error worded, by encoding/json.
	resp = postJSON(t, srv.URL+"/v1/batch", map[string]any{"solver": "mb", "variations": []any{map[string]any{}}, "extra": 1})
	var body struct {
		Error string `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || body.Error != `json: unknown field "extra"` {
		t.Errorf("unknown field: status %d, error %q", resp.StatusCode, body.Error)
	}
}

// TestWaiterSurvivesOwnerDeadline: a cancellation-aware backend surfaces
// the owner's context error when the owner's deadline dies mid-compute; a
// coalesced waiter with a healthier deadline must recompute under its own
// deadline instead of inheriting the owner's failure.
func TestWaiterSurvivesOwnerDeadline(t *testing.T) {
	var calls atomic.Int64
	r := new(Registry)
	if err := r.Register(Solver{
		Name: "ctx-aware", Policy: core.Multiple, Kind: "heuristic",
		Run: func(ctx context.Context, in *core.Instance, opt Options) (Result, error) {
			if calls.Add(1) == 1 {
				<-ctx.Done() // the owner's deadline dies mid-compute
				return Result{}, ctx.Err()
			}
			return solutionBackend(heuristics.MG)(ctx, in, opt)
		},
	}); err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, EngineOptions{Workers: 2, Registry: r})
	in := gen.Instance(gen.Config{Internal: 6, Clients: 12, Lambda: 0.3, UnitCosts: true}, 17)

	ownerDone := make(chan error, 1)
	go func() {
		_, err := e.Solve(context.Background(), Request{
			Instance: in, Solver: "ctx-aware",
			Options: Options{Timeout: 100 * time.Millisecond},
		})
		ownerDone <- err
	}()
	// Let the owner claim the entry and start computing before joining.
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	resp, err := e.Solve(context.Background(), Request{
		Instance: in, Solver: "ctx-aware",
		Options: Options{Timeout: 5 * time.Second},
	})
	if err != nil {
		t.Fatalf("waiter: %v", err)
	}
	if resp.NoSolution || resp.ReplicaCount == 0 {
		t.Fatalf("waiter got empty response %+v", resp)
	}
	if err := <-ownerDone; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("owner: err = %v, want DeadlineExceeded", err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("backend ran %d times, want 2 (owner + waiter recompute)", got)
	}
}
