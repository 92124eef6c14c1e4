package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/cluster/wire"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/session"
	"repro/internal/tree"
)

// replayer is part B of the traced phase: it replays a workload's
// requests through the layers' public functions, in the order the
// handler calls them, recording the harness's spans.
type replayer interface {
	// run replays requests for about d.
	run(ctx context.Context, tr *tracer, d time.Duration, t *tally)
	// close times the layers measured alone (under "side" roots),
	// releases what the replayer holds, and returns the cross-checks'
	// pairs of timings.
	close(ctx context.Context, tr *tracer, t *tally) []timing
}

// timing pairs the harness's and the program's own timing of the same
// calls; the cross-checks compare their means.
type timing struct {
	layer            string
	harness, program histSum
}

// solveTiming times solver.Run on each instance from outside, then has
// engine e solve the same instance, uncached, which times it in the
// engine's histogram. Alone and in turn, the two see the same machine.
func solveTiming(ctx context.Context, e *service.Engine, solver service.Solver, ins []*core.Instance, t *tally) timing {
	tm := timing{layer: "heuristics.solve_us"}
	before := engineSolves(e)
	for _, in := range ins {
		start := time.Now()
		_, err := solver.Run(ctx, in, service.Options{})
		tm.harness = tm.harness.plus(histSum{1, time.Since(start).Seconds()})
		if t.add(err) != nil {
			continue
		}
		_, err = e.Solve(ctx, service.Request{Instance: in, Solver: solver.Name, Policy: solver.Policy,
			Options: service.Options{NoCache: true}})
		t.add(err)
	}
	tm.program = engineSolves(e).minus(before)
	return tm
}

// engineSolves sums the engine's solve histograms over its solvers.
func engineSolves(e *service.Engine) histSum {
	var h histSum
	solve, _ := e.SolveHistograms()
	for _, s := range solve {
		h = h.plus(histOf(s))
	}
	return h
}

// instanceJSON mirrors core's instance wire format, so the replay can time
// decoding apart from the tree build and validation that
// core.Instance.UnmarshalJSON runs after it.
type instanceJSON struct {
	Parents  []int   `json:"parents"`
	IsClient []bool  `json:"is_client"`
	R        []int64 `json:"requests"`
	W        []int64 `json:"capacities"`
	S        []int64 `json:"storage_costs"`
	Q        []int   `json:"qos,omitempty"`
	Comm     []int64 `json:"comm,omitempty"`
	BW       []int64 `json:"bandwidth,omitempty"`
}

// replaySliceOps bounds the operations of one replay slice, so the span
// log of a fast workload stays a few MB.
const replaySliceOps = 1000

// more reports whether a replay slice that started at start and has done
// n operations goes on.
func more(start time.Time, d time.Duration, n int) bool {
	return n < replaySliceOps && time.Since(start) < d
}

// decodeStrict decodes body the way the handler does.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

type solveReplayer struct {
	l    *solveLoad
	p    *program
	next int // the pool index the next slice starts at
}

func (l *solveLoad) replayer(_ context.Context, p *program, _ *tally) (replayer, error) {
	return &solveReplayer{l: l, p: p}, nil
}

// run replays the instance pool in order, each slice going on where the
// last one stopped, so the solver mix matches part A's.
func (r *solveReplayer) run(ctx context.Context, tr *tracer, d time.Duration, t *tally) {
	start := time.Now()
	for n := 0; n == 0 || more(start, d, n); n++ {
		tr.begin("op")
		t.add(r.replay(ctx, tr, &r.l.inputs[r.next]))
		tr.end()
		r.next = (r.next + 1) % len(r.l.inputs)
	}
}

// close times the cache key hash alone on solve-hit: it runs inside
// Engine.CachePeek, whose span therefore includes it. On solve-cold it
// pairs the solves' timings for the cross-check.
func (r *solveReplayer) close(ctx context.Context, tr *tracer, t *tally) []timing {
	if r.l.cold {
		var timings []timing
		for _, name := range coldSolvers {
			solver, _ := r.p.engine.Registry().Resolve(name, core.Multiple)
			var ins []*core.Instance
			for k := range r.l.inputs {
				if r.l.inputs[k].solver == name {
					ins = append(ins, r.l.inputs[k].in)
				}
			}
			timings = append(timings, solveTiming(ctx, r.p.engine, solver, ins, t))
		}
		return []timing{sumTimings(timings)}
	}
	for k := range r.l.inputs {
		in := &r.l.inputs[k]
		tr.begin("side")
		tr.layer("service.hash", func() { service.Key(in.in, in.solver, service.Options{}) })
		tr.end()
	}
	return nil
}

func sumTimings(ts []timing) timing {
	sum := timing{layer: ts[0].layer}
	for _, t := range ts {
		sum.harness = sum.harness.plus(t.harness)
		sum.program = sum.program.plus(t.program)
	}
	return sum
}

func (r *solveReplayer) replay(ctx context.Context, tr *tracer, in *solveInput) error {
	var (
		req struct {
			Instance json.RawMessage        `json:"instance"`
			Solver   string                 `json:"solver"`
			Policy   string                 `json:"policy"`
			Options  service.RequestOptions `json:"options"`
		}
		wireIn instanceJSON
		err    error
	)
	tr.layer("service.decode", func() {
		if err = decodeStrict(in.body, &req); err == nil {
			err = json.Unmarshal(req.Instance, &wireIn)
		}
	})
	if err != nil {
		return err
	}
	var t *tree.Tree
	tr.layer("tree.build", func() { t, err = tree.FromParents(wireIn.Parents, wireIn.IsClient) })
	if err != nil {
		return err
	}
	inst := &core.Instance{Tree: t, R: wireIn.R, W: wireIn.W, S: wireIn.S, Q: wireIn.Q, Comm: wireIn.Comm, BW: wireIn.BW}
	// Validated twice, as on the served path: by the instance decoder,
	// then by the engine.
	for range 2 {
		if tr.layer("core.validate", func() { err = inst.Validate() }); err != nil {
			return err
		}
	}
	var resp *service.Response
	if !r.l.cold {
		var hit bool
		tr.layer("service.cache", func() {
			resp, hit = r.p.engine.CachePeek(service.Request{Instance: inst, Solver: req.Solver, Policy: core.Multiple})
		})
		if !hit {
			return errors.New("replay: cache miss on solve-hit")
		}
	} else {
		solver, ok := r.p.engine.Registry().Resolve(req.Solver, core.Multiple)
		if !ok {
			return fmt.Errorf("replay: unknown solver %q", req.Solver)
		}
		var res service.Result
		tr.layer("heuristics.solve", func() { res, err = solver.Run(ctx, inst, service.Options{}) })
		if err != nil {
			return err
		}
		if res.Solution != nil {
			if tr.layer("core.validate_solution", func() { err = res.Solution.Validate(inst, solver.Policy) }); err != nil {
				return err
			}
		}
		resp = &service.Response{Solver: solver.Name, Policy: solver.Policy.String(), NoSolution: res.NoSolution}
		tr.layer("service.encode", func() {
			if res.Solution != nil {
				resp.Cost = res.Solution.StorageCost(inst)
				resp.ReplicaCount = res.Solution.ReplicaCount()
				resp.Replicas = res.Solution.Replicas()
			}
		})
	}
	var out []byte
	tr.layer("service.encode", func() { out, err = json.Marshal(resp) })
	if err != nil {
		return err
	}
	var got answer
	if err := json.Unmarshal(out, &got); err != nil {
		return err
	}
	return in.want.matches(got)
}

type batchReplayer struct {
	l *batchLoad
	p *program
}

func (l *batchLoad) replayer(_ context.Context, p *program, _ *tally) (replayer, error) {
	return &batchReplayer{l: l, p: p}, nil
}

func (r *batchReplayer) run(ctx context.Context, tr *tracer, d time.Duration, t *tally) {
	start := time.Now()
	for n := 0; n == 0 || more(start, d, n); n++ {
		tr.begin("op")
		t.add(r.replay(ctx, tr))
		tr.end()
	}
}

// close times the per-variation layers alone: the solves and solution
// validations serially (inside a batch they overlap on the engine's
// workers), and for the routed batch the wire codec on one shard's
// share of the variations. It pairs the solves' timings, on the engine
// that solves them when served, for the cross-check.
func (r *batchReplayer) close(ctx context.Context, tr *tracer, t *tally) []timing {
	solver, _ := r.p.engine.Registry().Resolve(r.l.payload.Solver, core.Multiple)
	var ins []*core.Instance
	for _, v := range r.l.payload.Variations {
		in := v.Apply(r.l.base)
		ins = append(ins, in)
		var res service.Result
		var err error
		tr.begin("side")
		tr.layer("heuristics.solve", func() { res, err = solver.Run(ctx, in, service.Options{}) })
		if err == nil && res.Solution != nil {
			tr.layer("core.validate_solution", func() { err = res.Solution.Validate(in, solver.Policy) })
		}
		tr.end()
		t.add(err)
	}
	solving := []*service.Engine{r.p.engine}
	if r.l.isRouted {
		solving = nil
		for _, w := range r.p.workers {
			solving = append(solving, w.engine)
		}
	}
	var timings []timing
	for i, e := range solving {
		// Each engine solves an equal share of the variations.
		var share []*core.Instance
		for k := i; k < len(ins); k += len(solving) {
			share = append(share, ins[k])
		}
		timings = append(timings, solveTiming(ctx, e, solver, share, t))
	}
	checks := []timing{sumTimings(timings)}
	if !r.l.isRouted {
		return checks
	}
	sub := *r.l.payload
	sub.Variations = sub.Variations[:len(sub.Variations)/2]
	for range 64 {
		var buf []byte
		var err error
		tr.begin("side")
		tr.layer("wire.encode", func() { buf = wire.AppendBatchRequest(nil, &sub) })
		tr.layer("wire.decode", func() { _, err = wire.DecodeBatchRequest(buf) })
		tr.end()
		t.add(err)
	}
	return checks
}

func (r *batchReplayer) replay(ctx context.Context, tr *tracer) error {
	var (
		req    *service.BatchPayload
		base   *core.Instance
		policy core.Policy
		err    error
	)
	tr.layer("service.decode", func() { req, err = service.DecodeBatchPayload(r.l.body) })
	if err != nil {
		return err
	}
	tr.layer("tree.intern", func() { base, policy, err = req.Build(r.p.engine) })
	if err != nil {
		return err
	}
	lines := make([]service.BatchLine, 0, len(req.Variations))
	if r.l.isRouted {
		tr.layer("cluster.route_batch", func() {
			err = r.p.pool.RouteBatch(ctx, r.p.engine, base, policy, req, func(line service.BatchLine) error {
				lines = append(lines, line)
				return nil
			})
		})
	} else {
		tr.layer("service.solve_batch", func() {
			err = r.p.engine.SolveBatch(ctx, service.BatchRequest{Base: base, Solver: req.Solver, Policy: policy,
				Options: req.EngineOptions(), Variations: req.Variations}, func(item service.BatchItem) {
				line := service.BatchLine{Index: item.Index, Response: item.Response}
				if item.Err != nil {
					line.Error = item.Err.Error()
				}
				lines = append(lines, line)
			})
		})
	}
	if err != nil {
		return err
	}
	var out []byte
	tr.layer("service.encode", func() {
		for i := range lines {
			if out, err = lines[i].AppendJSON(out); err != nil {
				return
			}
			out = append(out, '\n')
		}
		var done []byte
		done, err = json.Marshal(batchDone{Done: true, Items: len(lines)})
		out = append(append(out, done...), '\n')
	})
	if err != nil {
		return err
	}
	return r.l.check(0, out)
}

// sessionReplayer applies the workload's op sequence to a replica
// session the harness registers from the same instance, with its own
// watcher. After each op it waits for the watcher to receive the new
// revision: watch lag runs from Apply returning to that delivery.
type sessionReplayer struct {
	l       *sessionLoad
	mgr     *session.Manager
	s       *session.Session
	next    int64
	lastRev uint64

	stopWatch context.CancelFunc
	delivered chan delivery // one per revision the watcher receives
	watchDone chan struct{} // closed when the watcher has returned
	watchErr  error         // why it returned; read after watchDone
}

type delivery struct {
	rev uint64
	at  time.Time
}

func (l *sessionLoad) replayer(ctx context.Context, p *program, t *tally) (replayer, error) {
	r := &sessionReplayer{l: l, delivered: make(chan delivery, 1), watchDone: make(chan struct{})}
	r.mgr = session.NewManager(session.Options{Resolve: service.SessionResolver(p.engine.Registry())})
	s, err := r.mgr.Create(ctx, l.in, "mg", core.Multiple)
	if t.add(err) != nil {
		r.mgr.Close()
		return nil, err
	}
	r.s, r.lastRev = s, 1
	wctx, stop := context.WithCancel(ctx)
	r.stopWatch = stop
	go func() {
		defer close(r.watchDone)
		r.watchErr = s.Watch(wctx, 1, true, func(d session.Diff) error {
			select {
			case r.delivered <- delivery{d.Rev, time.Now()}:
				return nil
			case <-wctx.Done():
				return wctx.Err()
			}
		})
	}()
	return r, nil
}

func (r *sessionReplayer) run(ctx context.Context, tr *tracer, d time.Duration, t *tally) {
	start := time.Now()
	for n := 0; n == 0 || more(start, d, n); n++ {
		tr.begin("op")
		res, err := r.replay(ctx, tr, r.l.patchBody(r.next))
		tr.end()
		applied := time.Now()
		r.next++
		if err == nil && res.Rev != r.lastRev+1 {
			err = fmt.Errorf("replay: rev %d after %d", res.Rev, r.lastRev)
		}
		if t.add(err) != nil {
			continue
		}
		r.lastRev = res.Rev
		if err := t.add(r.awaitDelivery(tr, res.Rev, applied)); err != nil {
			return
		}
	}
}

// awaitDelivery waits for the watcher to receive rev and records the lag.
func (r *sessionReplayer) awaitDelivery(tr *tracer, rev uint64, applied time.Time) error {
	timer := time.NewTimer(requestTimeout)
	defer timer.Stop()
	for {
		select {
		case d := <-r.delivered:
			if d.rev < rev {
				continue
			}
			if d.rev > rev {
				return fmt.Errorf("replay watcher: rev %d before %d", d.rev, rev)
			}
			// A delivery can beat Apply's return; its lag is then zero.
			tr.record("watch", "session.watch_lag", applied, maxTime(applied, d.at))
			return nil
		case <-r.watchDone:
			return fmt.Errorf("replay watcher: %w", r.watchErr)
		case <-timer.C:
			return fmt.Errorf("replay watcher: no rev %d within %v", rev, requestTimeout)
		}
	}
}

func maxTime(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

// close stops the watcher and pairs the replayed applies' timing with
// the replica manager's own.
func (r *sessionReplayer) close(_ context.Context, tr *tracer, _ *tally) []timing {
	r.stopWatch()
	<-r.watchDone
	program := histOf(r.mgr.Stats().Apply)
	r.mgr.Close()
	return []timing{{layer: "session.apply_us", harness: tr.sum("session.apply"), program: program}}
}

func (r *sessionReplayer) replay(ctx context.Context, tr *tracer, body []byte) (*session.ApplyResult, error) {
	var (
		req struct {
			Ops []session.Op `json:"ops"`
		}
		res *session.ApplyResult
		err error
	)
	tr.layer("service.decode", func() { err = decodeStrict(body, &req) })
	if err != nil {
		return nil, err
	}
	tr.layer("session.apply", func() { res, err = r.s.Apply(ctx, req.Ops) })
	if err != nil {
		return nil, err
	}
	tr.layer("service.encode", func() { _, err = json.Marshal(res) })
	return res, err
}
