package cluster

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster/wire"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/service"
)

// wireServers maps each test worker to its wire.Server so killServer
// can sever hijacked wire connections too: httptest untracks a conn
// once it is hijacked, so CloseClientConnections alone would leave a
// "crashed" worker's wire sessions alive and the failover tests
// vacuous.
var wireServers sync.Map // *httptest.Server -> *wire.Server

// newWorker starts an in-process worker shard: the full service handler
// with unlimited inline campaigns and the binary wire transport
// mounted, like rpworker runs.
func newWorker(t testing.TB, engineWorkers int) (*httptest.Server, *service.Engine) {
	t.Helper()
	e := service.NewEngine(service.EngineOptions{Workers: engineWorkers})
	ws := wire.NewServer(e, nil)
	srv := httptest.NewServer(service.NewHandlerOpts(e, service.HandlerOptions{
		MaxInlineCampaigns: -1,
		Wire:               ws,
	}))
	wireServers.Store(srv, ws)
	t.Cleanup(func() {
		killServer(srv)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		e.Close(ctx)
	})
	return srv, e
}

// Scripted worker behaviours (scriptedWorker.mode).
const (
	scriptOK        int32 = iota // upgrade; answer each request with one empty row
	scriptTransient              // answer each request with a transient FrameError
	scriptPermanent              // answer each request with a FlagPermanent FrameError
	scriptRefuse                 // fail pings and refuse the upgrade
)

// scriptedWorker is a minimal rp-wire/2 shard whose every answer is
// chosen at the moment it is asked — by mode, or by a custom answer
// function — so tests can fail, heal or stall a shard on demand.
type scriptedWorker struct {
	mode   atomic.Int32
	hits   atomic.Int64 // request frames received
	srv    *httptest.Server
	conns  sync.Map // hijacked net.Conn -> struct{}
	answer func(f wire.Frame, fw *wire.Writer)
}

// newScriptedWorker starts a scripted worker. answer, when non-nil,
// replies to every request frame instead of the mode-driven script;
// its frames reach the peer as soon as each WriteFrame returns.
func newScriptedWorker(t *testing.T, answer func(f wire.Frame, fw *wire.Writer)) *scriptedWorker {
	t.Helper()
	w := &scriptedWorker{answer: answer}
	if w.answer == nil {
		w.answer = w.scripted
	}
	w.srv = httptest.NewServer(w)
	t.Cleanup(w.kill)
	return w
}

// kill simulates a worker crash: hijacked wire sessions are cut and
// the listener stops accepting.
func (w *scriptedWorker) kill() {
	w.conns.Range(func(c, _ any) bool { c.(net.Conn).Close(); return true })
	w.srv.CloseClientConnections()
	w.srv.Close()
}

func (w *scriptedWorker) scripted(f wire.Frame, fw *wire.Writer) {
	switch w.mode.Load() {
	case scriptOK:
		fw.WriteFrame(wire.FrameRow, 0, f.Stream, wire.AppendRow(nil, 0, "", []byte(`{}`)))
		fw.WriteFrame(wire.FrameDone, 0, f.Stream, wire.AppendDone(nil, 1, 0))
	case scriptPermanent:
		fw.WriteFrame(wire.FrameError, wire.FlagPermanent, f.Stream, []byte("no such solver"))
	default:
		fw.WriteFrame(wire.FrameError, 0, f.Stream, []byte("injected"))
	}
}

func (w *scriptedWorker) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	if w.mode.Load() == scriptRefuse {
		http.Error(rw, `{"error":"down"}`, http.StatusServiceUnavailable)
		return
	}
	if r.URL.Path != "/v1/wire" {
		rw.Write([]byte(`{"status":"ok","workers":1}`))
		return
	}
	conn, brw, err := http.NewResponseController(rw).Hijack()
	if err != nil {
		return
	}
	w.conns.Store(conn, struct{}{})
	defer conn.Close()
	brw.WriteString("HTTP/1.1 101 Switching Protocols\r\nUpgrade: " + wire.ProtocolName + "\r\nConnection: Upgrade\r\n\r\n")
	if brw.Flush() != nil {
		return
	}
	fr, fw := wire.NewReader(brw.Reader), wire.NewWriter(conn) // unbuffered
	for {
		f, err := fr.Next()
		if err != nil {
			return
		}
		w.hits.Add(1)
		w.answer(f, fw)
	}
}

// killServer simulates a worker crash: in-flight connections are cut —
// including hijacked wire sessions, which httptest no longer tracks —
// and the listener stops accepting.
func killServer(srv *httptest.Server) {
	if ws, ok := wireServers.LoadAndDelete(srv); ok {
		ws.(*wire.Server).Close()
	}
	srv.CloseClientConnections()
	srv.Close()
}

func testInstance(seed int64) *core.Instance {
	return gen.Instance(gen.Config{Internal: 8, Clients: 16, Lambda: 0.4, UnitCosts: true}, seed)
}

func newTestPool(t testing.TB, addrs []string, opts PoolOptions) *Pool {
	t.Helper()
	p, err := NewPool(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func TestPoolRejectsBadAddrs(t *testing.T) {
	// An empty list is legal since membership went dynamic — a bare
	// coordinator waits for workers to register — but its calls fail
	// fast instead of queueing forever.
	p, err := NewPool(nil, PoolOptions{ProbeInterval: -1})
	if err != nil {
		t.Fatalf("empty pool rejected: %v", err)
	}
	defer p.Close()
	if _, err := p.Solve(context.Background(), testInstance(1), "mb", core.Multiple, service.Options{}); !errors.Is(err, ErrNoShard) {
		t.Fatalf("empty-pool solve err = %v, want ErrNoShard", err)
	}
	for _, tc := range []struct {
		name  string
		addrs []string
	}{
		{"duplicate", []string{"a:1", "a:1"}},
		{"blank", []string{" "}},
		// No daemon serves TLS, so an https shard could never upgrade.
		{"https", []string{"https://a:1"}},
	} {
		if _, err := NewPool(tc.addrs, PoolOptions{ProbeInterval: -1}); err == nil {
			t.Fatalf("%s: NewPool(%q) accepted", tc.name, tc.addrs)
		}
		if len(tc.addrs) == 1 {
			if _, _, err := p.AddShard(tc.addrs[0], 0); err == nil {
				t.Fatalf("%s: AddShard(%q) accepted", tc.name, tc.addrs[0])
			}
		}
	}
	if p.ShardCount() != 0 {
		t.Fatalf("rejected addresses joined: %v", p.Addrs())
	}
}

// TestPoolSolveMatchesLocal: a solve proxied through the pool — over
// the wire, as a FrameSolve — returns the same placement cost as
// running the solver in-process.
func TestPoolSolveMatchesLocal(t *testing.T) {
	srv, e := newWorker(t, 2)
	p := newTestPool(t, []string{srv.URL}, PoolOptions{ProbeInterval: -1})

	in := testInstance(7)
	local, err := e.Solve(context.Background(), service.Request{Instance: in, Solver: "mb"})
	if err != nil {
		t.Fatal(err)
	}
	before := p.ClusterStats().WireRequests
	remote, err := p.Solve(context.Background(), in, "mb", core.Multiple, service.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.ClusterStats().WireRequests; got <= before {
		t.Fatalf("wire requests %d -> %d: the solve did not ride the wire", before, got)
	}
	if remote.Cost != local.Cost || remote.ReplicaCount != local.ReplicaCount {
		t.Fatalf("remote = cost %d / %d replicas, local = cost %d / %d replicas",
			remote.Cost, remote.ReplicaCount, local.Cost, local.ReplicaCount)
	}
	if remote.Solution == nil {
		t.Fatal("remote response without the solution the backend needs")
	}
}

// TestPoolSolveErrorClasses: a real worker answers the requests the
// HTTP surface would reject with 4xx as permanent FrameErrors, so they
// neither fail over nor count against the shard.
func TestPoolSolveErrorClasses(t *testing.T) {
	srv, _ := newWorker(t, 1)
	p := newTestPool(t, []string{srv.URL}, PoolOptions{ProbeInterval: -1})
	for _, solver := range []string{"definitely-not-a-solver", ""} {
		_, err := p.Solve(context.Background(), testInstance(1), solver, core.Multiple, service.Options{})
		if err == nil || !isPermanent(err) {
			t.Fatalf("solver %q: err = %v, want permanent", solver, err)
		}
	}
	if st := p.ShardStats()[0]; !st.Healthy || st.Failures != 0 {
		t.Fatalf("permanent errors poisoned the shard: %+v", st)
	}
}

// TestPoolFailover: with one dead shard in the list, idempotent calls
// fail over to the live one and the dead shard's circuit opens.
func TestPoolFailover(t *testing.T) {
	srv, _ := newWorker(t, 2)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadAddr := dead.URL
	killServer(dead)

	p := newTestPool(t, []string{deadAddr, srv.URL}, PoolOptions{
		ProbeInterval: -1,
		FailThreshold: 2,
		OpenFor:       time.Minute,
	})
	in := testInstance(3)
	for i := 0; i < 6; i++ {
		if _, err := p.Solve(context.Background(), in, "mb", core.Multiple, service.Options{NoCache: true}); err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
	}
	var deadStat, liveStat service.ShardStat
	for _, st := range p.ShardStats() {
		if st.Addr == deadAddr {
			deadStat = st
		} else {
			liveStat = st
		}
	}
	if deadStat.Failures == 0 || deadStat.Failovers == 0 {
		t.Fatalf("dead shard stats = %+v, want failures and failovers", deadStat)
	}
	if deadStat.State != "open" {
		t.Fatalf("dead shard state = %s, want open (threshold 2 exceeded)", deadStat.State)
	}
	if liveStat.Requests == 0 || liveStat.Failures != 0 {
		t.Fatalf("live shard stats = %+v", liveStat)
	}
}

// TestPoolCircuitTransitions walks one shard's breaker through
// closed → open → half-open → closed against a scripted worker that
// fails on demand, with the background prober disabled so every
// transition is driven by recorded request outcomes.
func TestPoolCircuitTransitions(t *testing.T) {
	w := newScriptedWorker(t, nil)
	const openFor = 80 * time.Millisecond
	p := newTestPool(t, []string{w.srv.URL}, PoolOptions{
		ProbeInterval: -1,
		FailThreshold: 2,
		OpenFor:       openFor,
		MaxFailures:   1, // one failed execution per do() call
	})
	s := p.shards[0]
	state := func() string { return p.ShardStats()[0].State }
	callCtx := func(ctx context.Context) error {
		_, err := p.Solve(ctx, testInstance(1), "mb", core.Multiple, service.Options{})
		return err
	}
	call := func() error { return callCtx(context.Background()) }

	if err := call(); err != nil || state() != "closed" {
		t.Fatalf("healthy call: err=%v state=%s", err, state())
	}

	// Two consecutive failures reach the threshold: closed -> open.
	w.mode.Store(scriptTransient)
	for i := 0; i < 2; i++ {
		if err := call(); err == nil || isPermanent(err) {
			t.Fatalf("failing call: err=%v, want a transient failure", err)
		}
	}
	if state() != "open" {
		t.Fatalf("state after threshold = %s, want open", state())
	}

	// While open, calls find no admissible shard and time out without
	// ever reaching the worker.
	before := w.hits.Load()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	err := callCtx(ctx)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("open-circuit call: %v, want deadline", err)
	}
	if got := w.hits.Load(); got != before {
		t.Fatalf("open circuit admitted traffic: %d -> %d requests", before, got)
	}

	// After OpenFor, the next request is the half-open trial; it fails,
	// re-opening immediately (no threshold counting in half-open).
	time.Sleep(openFor + 20*time.Millisecond)
	if err := call(); err == nil {
		t.Fatal("half-open trial against failing worker succeeded")
	}
	if state() != "open" {
		t.Fatalf("state after failed trial = %s, want open", state())
	}

	// Heal the worker; the trial after the window closes the circuit.
	w.mode.Store(scriptOK)
	time.Sleep(openFor + 20*time.Millisecond)
	// Observe the half-open admission itself: during tryAcquire the
	// state flips to half-open before the request runs.
	s.mu.Lock()
	st := s.state
	s.mu.Unlock()
	if st != stateOpen {
		t.Fatalf("pre-trial state = %v, want open", st)
	}
	if !s.tryAcquire(time.Now()) {
		t.Fatal("trial not admitted after OpenFor")
	}
	if state() != "half-open" {
		t.Fatalf("state during trial = %s, want half-open", state())
	}
	s.release()
	s.recordSuccess()
	if state() != "closed" {
		t.Fatalf("state after successful trial = %s, want closed", state())
	}
	if err := call(); err != nil {
		t.Fatalf("call after recovery: %v", err)
	}
}

// TestPoolProbeRecovery: a worker that refuses the wire upgrade fails
// the call like any transient fault and opens its circuit; once the
// worker is healthy the background prober closes it again, without
// live traffic.
func TestPoolProbeRecovery(t *testing.T) {
	w := newScriptedWorker(t, nil)
	w.mode.Store(scriptRefuse)
	p := newTestPool(t, []string{w.srv.URL}, PoolOptions{
		ProbeInterval: 20 * time.Millisecond,
		FailThreshold: 1,
		OpenFor:       time.Minute, // far longer than the probe period
		MaxFailures:   1,
	})
	_, err := p.Solve(context.Background(), testInstance(1), "mb", core.Multiple, service.Options{})
	if err == nil || isPermanent(err) {
		t.Fatalf("refused upgrade: err=%v, want a transient failure", err)
	}
	if st := p.ShardStats()[0].State; st != "open" {
		t.Fatalf("state after failure = %s, want open", st)
	}

	w.mode.Store(scriptOK)
	deadline := time.Now().Add(5 * time.Second)
	for !p.ShardStats()[0].Healthy {
		if time.Now().After(deadline) {
			t.Fatal("prober never closed the circuit of a healthy worker")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := p.Solve(context.Background(), testInstance(1), "mb", core.Multiple, service.Options{}); err != nil {
		t.Fatalf("call after recovery: %v", err)
	}
}

// TestPoolPermanentErrorNoFailover: a permanent FrameError must neither
// fail over (the second shard would fail identically) nor open the
// breaker.
func TestPoolPermanentErrorNoFailover(t *testing.T) {
	w1, w2 := newScriptedWorker(t, nil), newScriptedWorker(t, nil)
	w1.mode.Store(scriptPermanent)
	w2.mode.Store(scriptPermanent)
	p := newTestPool(t, []string{w1.srv.URL, w2.srv.URL}, PoolOptions{ProbeInterval: -1})
	_, err := p.Solve(context.Background(), testInstance(1), "definitely-not-a-solver", core.Multiple, service.Options{})
	if err == nil || !isPermanent(err) {
		t.Fatalf("err = %v, want permanent", err)
	}
	if hits := w1.hits.Load() + w2.hits.Load(); hits != 1 {
		t.Fatalf("permanent error hit %d shards, want exactly 1 (no failover)", hits)
	}
	for _, st := range p.ShardStats() {
		if !st.Healthy || st.Failures != 0 {
			t.Fatalf("permanent error poisoned shard stats: %+v", st)
		}
	}
}

// TestRegisterRemote: @remote twins resolve through the engine with the
// cache/validation layers intact, for solution and bound solvers alike.
func TestRegisterRemote(t *testing.T) {
	srv, we := newWorker(t, 2)
	p := newTestPool(t, []string{srv.URL}, PoolOptions{ProbeInterval: -1})

	reg := service.NewRegistry()
	if err := RegisterRemote(reg, p); err != nil {
		t.Fatal(err)
	}
	// Idempotence guard: a second pass must not try to register
	// "x@remote@remote" (it would fail on duplicates otherwise).
	if err := RegisterRemote(service.NewRegistry(), p); err != nil {
		t.Fatal(err)
	}

	e := service.NewEngine(service.EngineOptions{Workers: 2, Registry: reg})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		e.Close(ctx)
	})

	in := testInstance(11)
	local, err := we.Solve(context.Background(), service.Request{Instance: in, Solver: "optimal"})
	if err != nil {
		t.Fatal(err)
	}
	remote, err := e.Solve(context.Background(), service.Request{Instance: in, Solver: "optimal@remote"})
	if err != nil {
		t.Fatal(err)
	}
	if remote.Cost != local.Cost {
		t.Fatalf("optimal@remote cost %d != local %d", remote.Cost, local.Cost)
	}
	// The coordinator cache serves the repeat without another HTTP hop.
	again, err := e.Solve(context.Background(), service.Request{Instance: in, Solver: "optimal@remote"})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatal("second identical remote solve not served from the coordinator cache")
	}

	bound, err := e.Solve(context.Background(), service.Request{Instance: in, Solver: "lp-rational-multiple@remote"})
	if err != nil {
		t.Fatal(err)
	}
	if bound.Bound == nil || bound.Bound.Value <= 0 {
		t.Fatalf("remote bound = %+v", bound.Bound)
	}
}
