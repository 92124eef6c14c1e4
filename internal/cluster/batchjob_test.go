package cluster

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/jobs"
	"repro/internal/service"
)

// coordinatorEngine returns an engine whose registry carries the pool's
// @remote twins next to the local solvers, like a real coordinator's.
func coordinatorEngine(t *testing.T, p *Pool) *service.Engine {
	t.Helper()
	reg := service.NewRegistry()
	if err := RegisterRemote(reg, p); err != nil {
		t.Fatal(err)
	}
	e := service.NewEngine(service.EngineOptions{Workers: 2, Registry: reg})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		e.Close(ctx)
	})
	return e
}

// batchJobInstance is the base instance of the batch job tests.
func batchJobInstance() *core.Instance {
	return gen.Instance(gen.Config{Internal: 6, Clients: 12, Lambda: 0.4, UnitCosts: true}, 3)
}

// variationRates is variation i's request vector: every client of in
// asks for i%3 more than in the base.
func variationRates(in *core.Instance, i int) []int64 {
	r := append([]int64(nil), in.R...)
	for j := range r {
		if r[j] > 0 {
			r[j] += int64(i % 3)
		}
	}
	return r
}

// batchJobPayload is a batch job body of n rate variations over in.
func batchJobPayload(in *core.Instance, solver string, n int, options map[string]any) json.RawMessage {
	vars := make([]map[string]any, n)
	for i := range vars {
		vars[i] = map[string]any{"requests": variationRates(in, i)}
	}
	raw, err := json.Marshal(map[string]any{
		"topology":   map[string]any{"parents": in.Tree.Parents(), "is_client": in.Tree.ClientFlags()},
		"solver":     solver,
		"options":    options,
		"base":       map[string]any{"requests": in.R, "capacities": in.W, "storage_costs": in.S},
		"variations": vars,
	})
	if err != nil {
		panic(err)
	}
	return raw
}

// runBatchJob submits payload to a fresh manager over kinds, waits for
// the job to end and returns its final state and rows.
func runBatchJob(t *testing.T, kinds []jobs.Kind, payload json.RawMessage) (jobs.Meta, []service.BatchLine) {
	t.Helper()
	m, err := jobs.NewManager(jobs.Options{Workers: 1}, kinds...)
	if err != nil {
		t.Fatal(err)
	}
	defer closeManager(t, m)
	meta, err := m.Submit(context.Background(), jobs.Spec{Kind: service.BatchKindName, Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	final := pollMeta(t, m, meta.ID, func(meta jobs.Meta) bool { return meta.State.Terminal() })
	raw, err := m.Rows(meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	return final, decodeBatchRows(t, raw)
}

func decodeBatchRows(t *testing.T, raw []json.RawMessage) []service.BatchLine {
	t.Helper()
	lines := make([]service.BatchLine, len(raw))
	for i, r := range raw {
		if err := json.Unmarshal(r, &lines[i]); err != nil {
			t.Fatal(err)
		}
	}
	return lines
}

// byIndex keys rows by variation index, failing on a duplicate, an
// error row or an index set other than 0..n-1.
func byIndex(t *testing.T, lines []service.BatchLine, n int) map[int]service.BatchLine {
	t.Helper()
	out := make(map[int]service.BatchLine, len(lines))
	for _, line := range lines {
		if line.Error != "" {
			t.Fatalf("variation %d failed: %s", line.Index, line.Error)
		}
		if _, dup := out[line.Index]; dup {
			t.Fatalf("duplicate row for variation %d", line.Index)
		}
		if line.Index < 0 || line.Index >= n {
			t.Fatalf("row for variation %d of %d", line.Index, n)
		}
		out[line.Index] = line
	}
	if len(out) != n {
		t.Fatalf("rows cover %d of %d variations", len(out), n)
	}
	return out
}

// TestCoordinatorBatchJobAllShardsDown: with every shard dead, a
// coordinator's batch job computes each variation on its own engine,
// as an inline routed batch does, instead of failing as stalled.
func TestCoordinatorBatchJobAllShardsDown(t *testing.T) {
	w1, _ := newWorker(t, 1)
	w2, _ := newWorker(t, 1)
	p := newTestPool(t, []string{w1.URL, w2.URL}, PoolOptions{
		ProbeInterval: -1,
		FailThreshold: 1,
		OpenFor:       50 * time.Millisecond,
		RetryBackoff:  5 * time.Millisecond,
	})
	killServer(w1)
	killServer(w2)
	ce := coordinatorEngine(t, p)

	in := batchJobInstance()
	const n = 7
	before := p.ClusterStats()
	final, lines := runBatchJob(t, Kinds(ce, p), batchJobPayload(in, "MB@remote", n, nil))
	if final.State != jobs.StateSucceeded {
		t.Fatalf("batch job state = %s (%s)", final.State, final.Error)
	}
	rows := byIndex(t, lines, n)
	for i := 0; i < n; i++ {
		vi := *in
		vi.R = variationRates(in, i)
		local, err := ce.Solve(context.Background(), service.Request{Instance: &vi, Solver: "mb"})
		if err != nil {
			t.Fatal(err)
		}
		if rows[i].Cost != local.Cost {
			t.Fatalf("variation %d: job cost %d != local %d", i, rows[i].Cost, local.Cost)
		}
	}
	after := p.ClusterStats()
	if got := after.RowsLocalFallback - before.RowsLocalFallback; got != n {
		t.Fatalf("rows_local_fallback grew by %d, want %d", got, n)
	}
}

// TestCoordinatorBatchJobResumesMissingOnly: a coordinator batch job
// resumed with k checkpointed rows dispatches only the n-k missing
// variations, and the checkpoint plus the new rows hold every index
// exactly once.
func TestCoordinatorBatchJobResumesMissingOnly(t *testing.T) {
	w, _ := newWorker(t, 2)
	p := newTestPool(t, []string{w.URL}, PoolOptions{ProbeInterval: -1})
	ce := coordinatorEngine(t, p)

	in := batchJobInstance()
	const n = 9
	payload := batchJobPayload(in, "mb", n, nil)

	// The checkpoint: the even-indexed rows of a standalone run.
	le := service.NewEngine(service.EngineOptions{Workers: 2})
	defer le.Close(context.Background())
	var prior []json.RawMessage
	err := service.BatchJobKind(le, nil).Run(context.Background(), payload, nil, func(row json.RawMessage) error {
		var line service.BatchLine
		if err := json.Unmarshal(row, &line); err != nil {
			return err
		}
		if line.Index%2 == 0 {
			prior = append(prior, append(json.RawMessage(nil), row...))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	k := len(prior)

	before := p.ClusterStats()
	var resumed []json.RawMessage
	err = Kinds(ce, p)[1].Run(context.Background(), payload, prior, func(row json.RawMessage) error {
		resumed = append(resumed, append(json.RawMessage(nil), row...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	after := p.ClusterStats()
	dispatched := (after.RowsRouted - before.RowsRouted) + (after.RowsLocalFallback - before.RowsLocalFallback)
	if dispatched != uint64(n-k) {
		t.Fatalf("resume dispatched %d variations, want the %d missing", dispatched, n-k)
	}
	if len(resumed) != n-k {
		t.Fatalf("resume persisted %d rows, want %d", len(resumed), n-k)
	}
	byIndex(t, decodeBatchRows(t, append(prior, resumed...)), n)
}

// TestCoordinatorBatchJobMatchesStandalone: one payload with
// include_solution gives the same rows as a coordinator job and as a
// standalone job — index set, costs and assignments.
func TestCoordinatorBatchJobMatchesStandalone(t *testing.T) {
	w1, _ := newWorker(t, 2)
	w2, _ := newWorker(t, 2)
	p := newTestPool(t, []string{w1.URL, w2.URL}, PoolOptions{ProbeInterval: -1})
	ce := coordinatorEngine(t, p)

	in := batchJobInstance()
	const n = 8
	payload := batchJobPayload(in, "mb", n, map[string]any{"include_solution": true})

	final, coordLines := runBatchJob(t, Kinds(ce, p), payload)
	if final.State != jobs.StateSucceeded {
		t.Fatalf("coordinator job state = %s (%s)", final.State, final.Error)
	}
	le := service.NewEngine(service.EngineOptions{Workers: 2})
	defer le.Close(context.Background())
	final, localLines := runBatchJob(t, []jobs.Kind{service.BatchJobKind(le, nil)}, payload)
	if final.State != jobs.StateSucceeded {
		t.Fatalf("standalone job state = %s (%s)", final.State, final.Error)
	}

	coord, local := byIndex(t, coordLines, n), byIndex(t, localLines, n)
	for i := 0; i < n; i++ {
		c, l := coord[i], local[i]
		if c.Response == nil || l.Response == nil || c.Solution == nil || l.Solution == nil {
			t.Fatalf("variation %d: a row lacks its solution (coordinator %+v, standalone %+v)", i, c.Response, l.Response)
		}
		if c.Cost != l.Cost {
			t.Fatalf("variation %d: coordinator cost %d != standalone %d", i, c.Cost, l.Cost)
		}
		if !reflect.DeepEqual(c.Solution.Assign, l.Solution.Assign) {
			t.Fatalf("variation %d: assignments differ\ncoordinator: %v\nstandalone:  %v", i, c.Solution.Assign, l.Solution.Assign)
		}
	}
}
