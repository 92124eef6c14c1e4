package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/heuristics"
	"repro/internal/service"
)

// workloadNames lists the workloads in their default order.
var workloadNames = []string{"solve-hit", "solve-cold", "batch-local", "batch-routed", "session-patch"}

// workload is one set of inputs and the requests that carry them. Inputs
// and the oracle answers are made once per run (untimed); setup, the
// requests and finish run on every round's fresh program.
type workload interface {
	// routed reports whether the program is a coordinator over shards.
	routed() bool
	// callers is the number of closed-loop callers.
	callers() int
	// setup is the timed pass over the distinct inputs on a fresh
	// program; the returned target sends the round's requests. It
	// returns an error only when the round cannot proceed.
	setup(ctx context.Context, c *client, t *tally) (target, error)
	// replayer starts part B of the traced phase on p (see trace.go).
	replayer(ctx context.Context, p *program, t *tally) (replayer, error)
}

// target is a set-up program as one workload's requests see it.
type target interface {
	// request is the i-th request of the closed loop.
	request(i int64) (method, path string, body []byte)
	// check verifies the answer to request i.
	check(i int64, body []byte) error
	// finish runs the end-of-round checks, outside the timed window.
	finish(ctx context.Context, c *client) error
}

// tally counts requests and failures outside the closed loop.
type tally struct{ attempted, failed int }

func (t *tally) add(err error) error {
	t.attempted++
	if err != nil {
		t.failed++
		reportFailure(err)
	}
	return err
}

func newWorkload(name string, cfg config) (workload, error) {
	switch name {
	case "solve-hit":
		return newSolveLoad(cfg, false), nil
	case "solve-cold":
		return newSolveLoad(cfg, true), nil
	case "batch-local":
		return newBatchLoad(cfg, false), nil
	case "batch-routed":
		return newBatchLoad(cfg, true), nil
	case "session-patch":
		return newSessionLoad(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// answer is the part of a placement every surface must agree on.
type answer struct {
	Cost       int64 `json:"cost"`
	NoSolution bool  `json:"no_solution"`
}

// libraryAnswer solves in directly through the solver registry: the
// oracle every answer is checked against.
func libraryAnswer(reg *service.Registry, solver string, in *core.Instance) answer {
	s, ok := reg.Resolve(solver, core.Multiple)
	if !ok {
		panic("rpbench: unknown solver " + solver)
	}
	res, err := s.Run(context.Background(), in, service.Options{})
	if err != nil {
		panic(fmt.Sprintf("rpbench: oracle %s: %v", solver, err))
	}
	if res.Solution == nil {
		return answer{NoSolution: res.NoSolution}
	}
	return answer{Cost: res.Solution.StorageCost(in)}
}

func (a answer) matches(got answer) error {
	if a != got {
		return fmt.Errorf("answer %+v, library says %+v", got, a)
	}
	return nil
}

// solveLoad is POST /v1/solve over a pool of distinct instances: solver
// mb with the cache on (solve-hit), or solvers rotating over
// mb/mg/ctda/ubcf with options.no_cache (solve-cold).
type solveLoad struct {
	cold   bool
	inputs []solveInput
}

type solveInput struct {
	in     *core.Instance
	solver string
	body   []byte
	want   answer
}

// coldSolvers cover all three policies and MixedBest.
var coldSolvers = []string{"mb", "mg", "ctda", "ubcf"}

func newSolveLoad(cfg config, cold bool) *solveLoad {
	reg := service.NewRegistry()
	l := &solveLoad{cold: cold, inputs: make([]solveInput, cfg.solvePool)}
	gcfg := gen.Config{Internal: 300, Clients: 600, Lambda: 0.4, Heterogeneous: true}
	for k := range l.inputs {
		in := gen.Instance(gcfg, cfg.seed+int64(k))
		solver := "mb"
		if cold {
			solver = coldSolvers[k%len(coldSolvers)]
		}
		body, err := json.Marshal(solveBody{Instance: in, Solver: solver,
			Options: service.RequestOptions{NoCache: cold}})
		if err != nil {
			panic(err)
		}
		l.inputs[k] = solveInput{in: in, solver: solver, body: body, want: libraryAnswer(reg, solver, in)}
	}
	if cfg.corruptOracle {
		l.inputs[0].want.Cost++
	}
	return l
}

// solveBody is the /v1/solve request body.
type solveBody struct {
	Instance *core.Instance         `json:"instance"`
	Solver   string                 `json:"solver"`
	Options  service.RequestOptions `json:"options"`
}

func (l *solveLoad) routed() bool { return false }
func (l *solveLoad) callers() int { return 2 }

func (l *solveLoad) input(i int64) *solveInput { return &l.inputs[int(i%int64(len(l.inputs)))] }

func (l *solveLoad) request(i int64) (string, string, []byte) {
	return http.MethodPost, "/v1/solve", l.input(i).body
}

func (l *solveLoad) check(i int64, body []byte) error {
	var got answer
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("solve response: %w", err)
	}
	return l.input(i).want.matches(got)
}

// setup sends every instance once, from the workload's callers; for
// solve-hit this fills the cache, so every later request is a hit.
func (l *solveLoad) setup(ctx context.Context, c *client, t *tally) (target, error) {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		next atomic.Int64
	)
	for range l.callers() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := next.Add(1) - 1; k < int64(len(l.inputs)); k = next.Add(1) - 1 {
				err := callChecked(ctx, c, l, k)
				mu.Lock()
				t.add(err)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return l, nil
}

func (l *solveLoad) finish(context.Context, *client) error { return nil }

// callChecked sends request i of tg and checks the answer.
func callChecked(ctx context.Context, c *client, tg target, i int64) error {
	method, path, body := tg.request(i)
	resp, err := c.call(ctx, method, path, body)
	if err != nil {
		return err
	}
	return tg.check(i, resp)
}

// batchLoad is POST /v1/batch: one topology, variations request vectors,
// solver mg, options.no_cache. batch-local sends it to a standalone
// program, batch-routed to a coordinator over two shards.
type batchLoad struct {
	isRouted bool
	payload  *service.BatchPayload
	base     *core.Instance
	body     []byte
	want     []answer
}

// batchVariations is the number of request vectors per batch.
const batchVariations = 64

func newBatchLoad(cfg config, routed bool) *batchLoad {
	// λ = 0.3 keeps every variation of every seed feasible, so no row is
	// a cheap no-solution and the work per batch is steady across seeds.
	base := gen.Instance(gen.Config{Internal: 200, Clients: 400, UnitCosts: true, Lambda: 0.3}, cfg.seed)
	t := base.Tree
	l := &batchLoad{isRouted: routed, base: base, payload: &service.BatchPayload{
		Topology: service.BatchTopology{Parents: t.Parents(), IsClient: t.ClientFlags()},
		Solver:   "mg",
		Options:  service.RequestOptions{NoCache: true},
		Base:     service.BatchVariation{R: base.R, W: base.W, S: base.S},
	}}
	// Variations redraw every client's rate from gen's default range
	// (1..100), so the load stays near the base's.
	rng := rand.New(rand.NewSource(cfg.seed))
	reg := service.NewRegistry()
	for range batchVariations {
		r := make([]int64, t.Len())
		for _, c := range t.Clients() {
			r[c] = 1 + rng.Int63n(100)
		}
		v := service.BatchVariation{R: r}
		l.payload.Variations = append(l.payload.Variations, v)
		l.want = append(l.want, libraryAnswer(reg, "mg", v.Apply(base)))
	}
	var err error
	if l.body, err = json.Marshal(l.payload); err != nil {
		panic(err)
	}
	if cfg.corruptOracle {
		l.want[0].Cost++
	}
	return l
}

func (l *batchLoad) routed() bool { return l.isRouted }
func (l *batchLoad) callers() int { return 2 }

func (l *batchLoad) request(int64) (string, string, []byte) {
	return http.MethodPost, "/v1/batch", l.body
}

// check verifies the NDJSON stream: one line per variation, each equal
// to the library's answer, then a done line with no failures.
func (l *batchLoad) check(_ int64, body []byte) error {
	seen := make([]bool, len(l.want))
	lines := 0
	var done *batchDone
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		lines++
		if done != nil {
			return errors.New("batch: line after done")
		}
		var line struct {
			Index *int `json:"index"`
			answer
			Error string `json:"error"`
			batchDone
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return fmt.Errorf("batch line %d: %w", lines, err)
		}
		switch {
		case line.Done:
			done = &line.batchDone
		case line.Error != "":
			return fmt.Errorf("batch line %d: %s", lines, line.Error)
		case line.Index == nil || *line.Index < 0 || *line.Index >= len(seen) || seen[*line.Index]:
			return fmt.Errorf("batch line %d: bad or repeated index", lines)
		default:
			seen[*line.Index] = true
			if err := l.want[*line.Index].matches(line.answer); err != nil {
				return fmt.Errorf("batch variation %d: %w", *line.Index, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if done == nil || done.Items != len(l.want) || done.Failed != 0 || lines != len(l.want)+1 {
		return fmt.Errorf("batch: %d lines, done %+v", lines, done)
	}
	return nil
}

// batchDone is the trailer line of a /v1/batch stream.
type batchDone struct {
	Done      bool    `json:"done"`
	Items     int     `json:"items"`
	Failed    int     `json:"failed"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// setup sends the batch once: it interns the topology.
func (l *batchLoad) setup(ctx context.Context, c *client, t *tally) (target, error) {
	t.add(callChecked(ctx, c, l, 0))
	return l, nil
}

func (l *batchLoad) finish(context.Context, *client) error { return nil }

// sessionLoad is PATCH /v1/instances/{id} on an mg session over a large
// tree: op i sets the rate of client clients[(i·7919) mod |clients|] to
// 1 + i mod 47, one op per request, while a watcher follows every diff.
type sessionLoad struct {
	in      *core.Instance
	body    []byte
	clients []int
	want    answer // the initial placement
}

func newSessionLoad(cfg config) *sessionLoad {
	// At λ = 0.2 the tree is feasible for every seed. An infeasible
	// session answers each delta with an O(n) reconcile instead of the
	// incremental diff, which is a different workload.
	in := gen.Instance(gen.Config{Internal: cfg.sessionClients / 4, Clients: cfg.sessionClients, Lambda: 0.2}, cfg.seed)
	body, err := json.Marshal(struct {
		Instance *core.Instance `json:"instance"`
		Solver   string         `json:"solver"`
	}{in, "mg"})
	if err != nil {
		panic(err)
	}
	l := &sessionLoad{in: in, body: body, clients: in.Tree.Clients(),
		want: libraryAnswer(service.NewRegistry(), "mg", in)}
	if cfg.corruptOracle {
		l.want.Cost++
	}
	return l
}

func (l *sessionLoad) routed() bool { return false }

// callers is the one writer; the watcher holds the second connection.
func (l *sessionLoad) callers() int { return 1 }

func (l *sessionLoad) patchBody(i int64) []byte {
	c := l.clients[int((i*7919)%int64(len(l.clients)))]
	return fmt.Appendf(nil, `{"ops":[{"op":"set_rate","vertex":%d,"value":%d}]}`, c, 1+i%47)
}

// setup registers the session (the large POST /v1/instances) and
// attaches the watcher.
func (l *sessionLoad) setup(ctx context.Context, c *client, t *tally) (target, error) {
	resp, err := c.call(ctx, http.MethodPost, "/v1/instances", l.body)
	if t.add(err) != nil {
		return nil, err
	}
	var created struct {
		ID  string `json:"id"`
		Rev uint64 `json:"rev"`
		answer
	}
	if err := json.Unmarshal(resp, &created); err != nil {
		return nil, fmt.Errorf("create response: %w", err)
	}
	if err := l.want.matches(created.answer); err != nil {
		t.failed++
		reportFailure(fmt.Errorf("session create: %w", err))
	}
	st := &sessionTarget{l: l, id: created.ID, lastRev: created.Rev}
	if st.watch, err = startWatcher(c, "/v1/instances/"+st.id+"/watch"); err != nil {
		return nil, err
	}
	return st, nil
}

// sessionTarget is one registered session and its watcher. It has one
// writer, so check needs no lock.
type sessionTarget struct {
	l       *sessionLoad
	id      string
	lastRev uint64
	watch   *watcher
}

func (st *sessionTarget) request(i int64) (string, string, []byte) {
	return http.MethodPatch, "/v1/instances/" + st.id, st.l.patchBody(i)
}

func (st *sessionTarget) check(_ int64, body []byte) error {
	var got struct {
		Rev uint64 `json:"rev"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("patch response: %w", err)
	}
	want := st.lastRev + 1
	st.lastRev = got.Rev
	if got.Rev != want {
		return fmt.Errorf("patch: rev %d, want %d", got.Rev, want)
	}
	return nil
}

// finish waits for the watcher to reach the writer's last revision, then
// checks the folded diffs against the session's solution and the
// session's cost against a cold MG solve of its current instance.
func (st *sessionTarget) finish(ctx context.Context, c *client) error {
	defer st.watch.stop()
	if err := st.watch.waitRev(st.lastRev, requestTimeout); err != nil {
		return err
	}
	resp, err := c.call(ctx, http.MethodGet, "/v1/instances/"+st.id+"?include_solution=1", nil)
	if err != nil {
		return err
	}
	var status struct {
		Rev      uint64         `json:"rev"`
		Replicas []int          `json:"replicas"`
		Solution *core.Solution `json:"solution"`
		answer
	}
	if err := json.Unmarshal(resp, &status); err != nil {
		return fmt.Errorf("session status: %w", err)
	}
	folded, cost := st.watch.state()
	var solved []int
	if status.Solution != nil {
		solved = status.Solution.Replicas()
	}
	switch {
	case status.Rev != st.lastRev:
		return fmt.Errorf("session at rev %d, writer saw %d", status.Rev, st.lastRev)
	case !slices.Equal(folded, status.Replicas) || !slices.Equal(folded, solved) || cost != status.Cost:
		return fmt.Errorf("watched diffs fold to %d replicas (cost %d); session has %d, solution %d (cost %d)",
			len(folded), cost, len(status.Replicas), len(solved), status.Cost)
	}
	resp, err = c.call(ctx, http.MethodGet, "/v1/instances/"+st.id+"?include_instance=1", nil)
	if err != nil {
		return err
	}
	var withInstance struct {
		Instance *core.Instance `json:"instance"`
	}
	if err := json.Unmarshal(resp, &withInstance); err != nil || withInstance.Instance == nil {
		return fmt.Errorf("session instance: %v", err)
	}
	in := withInstance.Instance
	want := answer{NoSolution: true}
	if sol, err := heuristics.MG(in); err == nil {
		want = answer{Cost: sol.StorageCost(in)}
	} else if !errors.Is(err, heuristics.ErrNoSolution) {
		return err
	}
	return want.matches(status.answer)
}

// watcher follows a session's watch stream and folds its diffs into the
// current replica set.
type watcher struct {
	cancel context.CancelFunc
	done   chan struct{} // closed when the reading goroutine has returned

	mu      sync.Mutex
	rev     uint64
	set     map[int]bool
	cost    int64
	err     error
	changed chan struct{} // closed and replaced on every update
}

// startWatcher opens the stream and returns once the opening snapshot
// has been read.
func startWatcher(c *client, path string) (*watcher, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("watch: status %d", resp.StatusCode)
	}
	w := &watcher{cancel: cancel, done: make(chan struct{}), set: map[int]bool{}, changed: make(chan struct{})}
	go w.read(resp)
	if err := w.waitRev(1, requestTimeout); err != nil {
		w.stop()
		return nil, err
	}
	return w, nil
}

func (w *watcher) read(resp *http.Response) {
	defer close(w.done)
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		var d struct {
			Rev  uint64 `json:"rev"`
			Add  []int  `json:"add"`
			Drop []int  `json:"drop"`
			Cost int64  `json:"cost"`
		}
		err := json.Unmarshal(sc.Bytes(), &d)
		w.mu.Lock()
		if err == nil && w.rev != 0 && d.Rev != w.rev+1 {
			err = fmt.Errorf("watch: rev %d after %d", d.Rev, w.rev)
		}
		if err != nil {
			w.err = err
			w.mu.Unlock()
			return
		}
		for _, v := range d.Add {
			w.set[v] = true
		}
		for _, v := range d.Drop {
			delete(w.set, v)
		}
		w.rev, w.cost = d.Rev, d.Cost
		close(w.changed)
		w.changed = make(chan struct{})
		w.mu.Unlock()
	}
	w.mu.Lock()
	if w.err == nil {
		w.err = errors.New("watch: stream ended")
		if err := sc.Err(); err != nil {
			w.err = fmt.Errorf("watch: %w", err)
		}
	}
	w.mu.Unlock()
}

// waitRev waits until the watcher has folded revision rev.
func (w *watcher) waitRev(rev uint64, timeout time.Duration) error {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		w.mu.Lock()
		cur, err, ch := w.rev, w.err, w.changed
		w.mu.Unlock()
		switch {
		case cur >= rev:
			return nil
		case err != nil:
			return err
		}
		select {
		case <-ch:
		case <-w.done:
		case <-timer.C:
			return fmt.Errorf("watch: at rev %d after %v, want %d", cur, timeout, rev)
		}
	}
}

// state returns the folded replica set, ascending, and the last cost.
func (w *watcher) state() ([]int, int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]int, 0, len(w.set))
	for v := range w.set {
		out = append(out, v)
	}
	slices.Sort(out)
	return out, w.cost
}

func (w *watcher) stop() {
	w.cancel()
	<-w.done
}
