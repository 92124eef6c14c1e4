package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster/wire"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/jobs"
	"repro/internal/service"
)

// slowAppendStore delays each row append, widening the window in which
// a running job can be interrupted (mirrors the service test helper).
type slowAppendStore struct {
	jobs.Store
	delay time.Duration
}

func (s slowAppendStore) AppendRow(id string, row json.RawMessage) error {
	time.Sleep(s.delay)
	return s.Store.AppendRow(id, row)
}

func testCampaignConfig() experiments.Config {
	return experiments.Config{
		Lambdas:        []float64{0.1, 0.3, 0.5, 0.7, 0.9},
		TreesPerLambda: 2,
		MinSize:        15,
		MaxSize:        25,
		Seed:           7,
		BoundNodes:     10,
	}
}

// hostageWorker starts a scripted worker for the mid-run fault tests.
// It computes its first campaign row itself, with the same
// experiments.Run a real worker's wire server runs, and holds every
// later campaign request until release closes, then fails it
// transiently: at release those rows are guaranteed in flight. The
// returned channel closes once the first row is on the wire.
func hostageWorker(t *testing.T, release <-chan struct{}) (*scriptedWorker, <-chan struct{}) {
	var served atomic.Int64
	firstDone := make(chan struct{})
	w := newScriptedWorker(t, func(f wire.Frame, fw *wire.Writer) {
		if served.Add(1) > 1 {
			<-release
			fw.WriteFrame(wire.FrameError, 0, f.Stream, []byte("worker dying"))
			return
		}
		row, err := runCampaignFrame(f)
		if err != nil {
			t.Error(err)
			fw.WriteFrame(wire.FrameError, wire.FlagPermanent, f.Stream, []byte(err.Error()))
			return
		}
		fw.WriteFrame(wire.FrameRow, 0, f.Stream, wire.AppendRow(nil, 0, "", row))
		fw.WriteFrame(wire.FrameDone, 0, f.Stream, wire.AppendDone(nil, 1, 0))
		close(firstDone)
	})
	return w, firstDone
}

// runCampaignFrame computes the one campaign row a FrameCampaign
// request asks for and returns its JSON body.
func runCampaignFrame(f wire.Frame) ([]byte, error) {
	if f.Type != wire.FrameCampaign {
		return nil, fmt.Errorf("frame type 0x%02x, want a campaign", f.Type)
	}
	payload := f.Payload
	if f.Flags&wire.FlagTraced != 0 {
		var err error
		if _, _, payload, err = wire.ParseTraceContext(payload); err != nil {
			return nil, err
		}
	}
	var req campaignWire
	if err := json.Unmarshal(payload, &req); err != nil {
		return nil, err
	}
	res, err := experiments.Run(req.Config)
	if err != nil {
		return nil, err
	}
	if len(res.Rows) != 1 {
		return nil, fmt.Errorf("campaign request computed %d rows, want 1", len(res.Rows))
	}
	return json.Marshal(res.Rows[0])
}

func submitJob(t *testing.T, m *jobs.Manager, kind string, payload any) string {
	t.Helper()
	raw, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := m.Submit(context.Background(), jobs.Spec{Kind: kind, Payload: raw})
	if err != nil {
		t.Fatal(err)
	}
	return meta.ID
}

func pollMeta(t *testing.T, m *jobs.Manager, id string, done func(jobs.Meta) bool) jobs.Meta {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		meta, ok := m.Get(id)
		if !ok {
			t.Fatal("job vanished")
		}
		if done(meta) {
			return meta
		}
		if meta.State == jobs.StateFailed {
			t.Fatalf("job failed: %s", meta.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job never reached the polled condition")
	return jobs.Meta{}
}

// sortedCampaignRows decodes sharded campaign rows, orders them by
// absolute index and checks the index set is exactly 0..n-1.
func sortedCampaignRows(t *testing.T, raw []json.RawMessage, n int) []experiments.Row {
	t.Helper()
	type indexed struct {
		idx int
		row experiments.Row
	}
	rows := make([]indexed, 0, len(raw))
	seen := map[int]bool{}
	for i, r := range raw {
		var line jobs.IndexedCampaignRow
		if err := json.Unmarshal(r, &line); err != nil {
			t.Fatalf("bad row %d: %v", i, err)
		}
		if seen[line.Index] {
			t.Fatalf("duplicate row index %d in checkpoint", line.Index)
		}
		seen[line.Index] = true
		rows = append(rows, indexed{line.Index, line.Row})
	}
	if len(rows) != n {
		t.Fatalf("got %d rows, want %d", len(rows), n)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].idx < rows[j].idx })
	out := make([]experiments.Row, n)
	for i, r := range rows {
		if r.idx != i {
			t.Fatalf("row indices not contiguous: position %d holds index %d", i, r.idx)
		}
		out[i] = r.row
	}
	return out
}

func assertByteIdenticalCSV(t *testing.T, direct *experiments.Results, cfg experiments.Config, rows []experiments.Row) {
	t.Helper()
	var want, got bytes.Buffer
	if err := direct.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	sharded := &experiments.Results{Config: cfg, Rows: rows}
	if err := sharded.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("sharded CSV differs from single-process run:\ngot:\n%s\nwant:\n%s", got.String(), want.String())
	}
	// Row-level equality too, not just the (sorted) CSV projection.
	wantJSON, _ := json.Marshal(direct.Rows)
	gotJSON, _ := json.Marshal(rows)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatalf("sharded rows differ from single-process run:\ngot  %s\nwant %s", gotJSON, wantJSON)
	}
}

// TestShardedCampaignKillWorkerMidRun is the acceptance e2e: a campaign
// job sharded across two workers — one of which dies mid-run —
// completes on the survivor and produces results byte-identical to a
// single-process experiments.Run. To make the mid-run death
// deterministic (a tiny campaign can outrace an asynchronous kill),
// worker 1 serves exactly one campaign row and then holds every further
// campaign request hostage until the test kills it: at kill time those
// requests are guaranteed in flight and must fail over to worker 2.
func TestShardedCampaignKillWorkerMidRun(t *testing.T) {
	cfg := testCampaignConfig()
	direct, err := experiments.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	w2, _ := newWorker(t, 2)
	died := make(chan struct{}) // mid-run: the worker is "killed" with rows in flight
	sw1, firstDone := hostageWorker(t, died)
	w1 := sw1.srv

	// Probing is off: between the hostage release and the listener
	// close, w1 is briefly alive-but-failing, and a lucky ping would
	// close its circuit again (probe recovery has its own test).
	p := newTestPool(t, []string{w1.URL, w2.URL}, PoolOptions{
		ProbeInterval: -1,
		FailThreshold: 1,
		OpenFor:       time.Minute,
	})
	m, err := jobs.NewManager(jobs.Options{Workers: 1}, CampaignKind(p))
	if err != nil {
		t.Fatal(err)
	}
	defer closeManager(t, m)

	id := submitJob(t, m, jobs.CampaignKindName, cfg)
	pollMeta(t, m, id, func(meta jobs.Meta) bool { return meta.RowsDone >= 1 })
	// Wait for w1's one successful row to fully complete first — its
	// success must not be able to close the breaker after the kill.
	<-firstDone
	close(died) // release the hostage rows as failures...
	sw1.kill()  // ...and take the whole worker down

	final := pollMeta(t, m, id, func(meta jobs.Meta) bool { return meta.State.Terminal() })
	if final.State != jobs.StateSucceeded {
		t.Fatalf("job state = %s (%s), want succeeded despite the dead worker", final.State, final.Error)
	}
	raw, err := m.Rows(id)
	if err != nil {
		t.Fatal(err)
	}
	rows := sortedCampaignRows(t, raw, len(cfg.Lambdas))
	assertByteIdenticalCSV(t, direct, cfg, rows)

	// The dead worker must have failed at least one in-flight row (the
	// hostages guarantee it) and handed it over to the survivor. The
	// breaker's exact final position is not asserted here — the one
	// successful w1 row's client-side completion can land after the
	// hostage failures and legitimately re-close it for an instant;
	// the open/half-open state machine has its own deterministic test
	// (TestPoolCircuitTransitions).
	for _, st := range p.ShardStats() {
		switch st.Addr {
		case w1.URL:
			if st.Failures == 0 || st.Failovers == 0 {
				t.Fatalf("dead worker recorded no failed-over rows: %+v", st)
			}
		case w2.URL:
			if st.Failures != 0 {
				t.Fatalf("survivor recorded failures: %+v", st)
			}
		}
	}
}

func closeManager(t *testing.T, m *jobs.Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatalf("closing manager: %v", err)
	}
}

// TestShardedCampaignMembershipChurn is the dynamic-membership
// acceptance e2e: a campaign job starts on shard set {A} alone, worker
// B hot-joins mid-run, A deregisters (and dies) — and the job completes
// on B with a merged result byte-identical to a single-process run. As
// in the kill test, A serves exactly one row and then holds further
// campaign requests hostage until released, so "mid-run" is
// deterministic rather than a race against a tiny campaign.
func TestShardedCampaignMembershipChurn(t *testing.T) {
	cfg := testCampaignConfig()
	direct, err := experiments.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	wB, _ := newWorker(t, 2)
	released := make(chan struct{}) // the membership change happens with rows in flight
	swA, firstDone := hostageWorker(t, released)
	wA := swA.srv

	// The job starts on {A} only; B exists but is not a member yet.
	p := newTestPool(t, []string{wA.URL}, PoolOptions{
		ProbeInterval: -1,
		FailThreshold: 1,
		OpenFor:       time.Minute,
	})
	m, err := jobs.NewManager(jobs.Options{Workers: 1}, CampaignKind(p))
	if err != nil {
		t.Fatal(err)
	}
	defer closeManager(t, m)

	startEpoch := p.Epoch()
	id := submitJob(t, m, jobs.CampaignKindName, cfg)
	pollMeta(t, m, id, func(meta jobs.Meta) bool { return meta.RowsDone >= 1 })
	<-firstDone

	// Hot-join B (weight discovered from its ping), then deregister A
	// while its hostage rows are still in flight — they must fail over
	// to the new member, not back onto the departed one.
	if _, joined, err := p.AddShard(wB.URL, 0); err != nil || !joined {
		t.Fatalf("join mid-run: %v %v", joined, err)
	}
	if !p.RemoveShard(wA.URL) {
		t.Fatal("deregistering A failed")
	}
	if p.Epoch() < startEpoch+2 {
		t.Fatalf("epoch %d after join+leave, want >= %d", p.Epoch(), startEpoch+2)
	}
	close(released)
	swA.kill()

	final := pollMeta(t, m, id, func(meta jobs.Meta) bool { return meta.State.Terminal() })
	if final.State != jobs.StateSucceeded {
		t.Fatalf("job state = %s (%s), want succeeded across the membership change", final.State, final.Error)
	}
	raw, err := m.Rows(id)
	if err != nil {
		t.Fatal(err)
	}
	rows := sortedCampaignRows(t, raw, len(cfg.Lambdas))
	assertByteIdenticalCSV(t, direct, cfg, rows)

	// Membership is {B} alone, and it carried the remaining rows.
	stats := p.ShardStats()
	if len(stats) != 1 || stats[0].Addr != wB.URL {
		t.Fatalf("final membership = %+v, want just B", stats)
	}
	if stats[0].Requests == 0 || stats[0].Failures != 0 {
		t.Fatalf("B's stats = %+v, want traffic and no failures", stats[0])
	}
}

// TestShardedCampaignResumeAcrossRestart: the sharded campaign kind has
// the same checkpoint semantics as the single-process one — a manager
// closed mid-run leaves an interrupted, file-backed job that a new
// manager resumes, recomputing only the missing row indices, with a
// byte-identical merged result.
func TestShardedCampaignResumeAcrossRestart(t *testing.T) {
	cfg := testCampaignConfig()
	direct, err := experiments.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	w1, _ := newWorker(t, 2)
	w2, _ := newWorker(t, 2)
	p := newTestPool(t, []string{w1.URL, w2.URL}, PoolOptions{ProbeInterval: -1})

	fs, err := jobs.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Slow appends on the first manager keep the tiny campaign from
	// fully checkpointing before Close interrupts it.
	m1, err := jobs.NewManager(jobs.Options{Store: slowAppendStore{fs, 250 * time.Millisecond}, Workers: 1}, CampaignKind(p))
	if err != nil {
		t.Fatal(err)
	}
	id := submitJob(t, m1, jobs.CampaignKindName, cfg)
	pollMeta(t, m1, id, func(meta jobs.Meta) bool { return meta.RowsDone >= 1 })
	closeManager(t, m1) // checkpoint: the job becomes interrupted

	stored, ok, err := fs.Get(id)
	if err != nil || !ok {
		t.Fatalf("job not on disk after shutdown: ok=%v err=%v", ok, err)
	}
	if stored.State != jobs.StateInterrupted {
		t.Fatalf("state after shutdown = %s, want interrupted", stored.State)
	}
	if stored.RowsDone < 1 || stored.RowsDone >= len(cfg.Lambdas) {
		t.Fatalf("checkpointed %d rows, want a strict non-empty subset", stored.RowsDone)
	}

	m2, err := jobs.NewManager(jobs.Options{Store: fs, Workers: 1}, CampaignKind(p))
	if err != nil {
		t.Fatal(err)
	}
	defer closeManager(t, m2)
	final := pollMeta(t, m2, id, func(meta jobs.Meta) bool { return meta.State.Terminal() })
	if final.State != jobs.StateSucceeded || final.Resumes != 1 {
		t.Fatalf("final = %+v, want succeeded with one resume", final)
	}
	raw, err := m2.Rows(id)
	if err != nil {
		t.Fatal(err)
	}
	rows := sortedCampaignRows(t, raw, len(cfg.Lambdas))
	assertByteIdenticalCSV(t, direct, cfg, rows)
}

// TestShardedBatchJob: a batch job partitioned across two shards
// produces one row per variation with the same costs as in-process
// solves, surviving a worker killed mid-run.
func TestShardedBatchJob(t *testing.T) {
	w1, _ := newWorker(t, 2)
	w2, we := newWorker(t, 2)
	p := newTestPool(t, []string{w1.URL, w2.URL}, PoolOptions{
		ProbeInterval: -1,
		FailThreshold: 1,
	})

	// The coordinator engine validates batch payloads and computes the
	// rows no shard takes.
	// Its registry carries the @remote twins, like a real coordinator's.
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
	const variations = 9
	vars := make([]map[string]any, variations)
	for i := range vars {
		r := append([]int64(nil), in.R...)
		for j := range r {
			if r[j] > 0 {
				r[j] += int64(i % 3)
			}
		}
		vars[i] = map[string]any{"requests": r}
	}
	// An @remote-suffixed solver validates against the coordinator
	// registry and must be forwarded to the workers stripped — they
	// only register local names.
	payload := map[string]any{
		"topology":   map[string]any{"parents": in.Tree.Parents(), "is_client": in.Tree.ClientFlags()},
		"solver":     "MB@remote",
		"base":       map[string]any{"requests": in.R, "capacities": in.W, "storage_costs": in.S},
		"variations": vars,
	}

	m, err := jobs.NewManager(jobs.Options{Workers: 1}, Kinds(ce, p)...)
	if err != nil {
		t.Fatal(err)
	}
	defer closeManager(t, m)
	id := submitJob(t, m, service.BatchKindName, payload)
	killServer(w1) // one shard dies before (or while) chunks land

	final := pollMeta(t, m, id, func(meta jobs.Meta) bool { return meta.State.Terminal() })
	if final.State != jobs.StateSucceeded {
		t.Fatalf("batch job state = %s (%s)", final.State, final.Error)
	}
	raw, err := m.Rows(id)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]int64{}
	for _, r := range raw {
		var line service.BatchLine
		if err := json.Unmarshal(r, &line); err != nil {
			t.Fatal(err)
		}
		if line.Error != "" {
			t.Fatalf("variation %d failed: %s", line.Index, line.Error)
		}
		if _, dup := got[line.Index]; dup {
			t.Fatalf("duplicate row for variation %d", line.Index)
		}
		got[line.Index] = line.Cost
	}
	if len(got) != variations {
		t.Fatalf("rows cover %d of %d variations", len(got), variations)
	}

	// Costs must match in-process solves of the same variations.
	for i := 0; i < variations; i++ {
		vi := *in
		r := append([]int64(nil), in.R...)
		for j := range r {
			if r[j] > 0 {
				r[j] += int64(i % 3)
			}
		}
		vi.R = r
		local, err := we.Solve(context.Background(), service.Request{Instance: &vi, Solver: "mb"})
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != local.Cost {
			t.Fatalf("variation %d: sharded cost %d != local %d", i, got[i], local.Cost)
		}
	}
}

// TestShardedKindsRejectResumeFields mirrors the single-process
// campaign kind's submit-time validation.
func TestShardedKindsRejectResumeFields(t *testing.T) {
	w, _ := newWorker(t, 1)
	p := newTestPool(t, []string{w.URL}, PoolOptions{ProbeInterval: -1})
	m, err := jobs.NewManager(jobs.Options{Workers: 1}, CampaignKind(p))
	if err != nil {
		t.Fatal(err)
	}
	defer closeManager(t, m)
	for _, bad := range []map[string]any{{"StartRow": 2}, {"EndRow": 1}} {
		raw, _ := json.Marshal(bad)
		if _, err := m.Submit(context.Background(), jobs.Spec{Kind: jobs.CampaignKindName, Payload: raw}); err == nil {
			t.Fatalf("submit with %v accepted", bad)
		}
	}
}

// BenchmarkPoolSolveBatch measures CPU-bound batch throughput through
// the coordinator's @remote path over 1 vs 2 worker shards, each shard
// pinned to a single solver goroutine so added shards equal added
// capacity (the acceptance criterion: 2 workers > 1 worker).
func BenchmarkPoolSolveBatch(b *testing.B) {
	const variations = 32
	in := gen.Instance(gen.Config{Internal: 40, Clients: 120, Lambda: 0.6, UnitCosts: true}, 5)
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var addrs []string
			for i := 0; i < shards; i++ {
				srv, _ := newWorker(b, 1) // single-core shard
				addrs = append(addrs, srv.URL)
			}
			p, err := NewPool(addrs, PoolOptions{ProbeInterval: -1, MaxInFlight: 2})
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			reg := service.NewRegistry()
			if err := RegisterRemote(reg, p); err != nil {
				b.Fatal(err)
			}
			e := service.NewEngine(service.EngineOptions{Workers: 8, Registry: reg, CacheSize: -1})
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				e.Close(ctx)
			}()

			vars := make([]service.BatchVariation, variations)
			for i := range vars {
				r := append([]int64(nil), in.R...)
				for j := range r {
					if r[j] > 0 {
						r[j] += int64(i)
					}
				}
				vars[i] = service.BatchVariation{R: r}
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				err := e.SolveBatch(context.Background(), service.BatchRequest{
					Base:       in,
					Solver:     "optimal@remote",
					Options:    service.Options{NoCache: true},
					Variations: vars,
				}, func(item service.BatchItem) {
					if item.Err != nil {
						b.Fatal(item.Err)
					}
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
