package session

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/heuristics"
)

// testResolver adapts the heuristics registry for sessions.
func testResolver(name string, p core.Policy) (Solver, error) {
	h, ok := heuristics.ByName(strings.ToUpper(name))
	if !ok {
		return Solver{}, fmt.Errorf("unknown solver %q", name)
	}
	return Solver{
		Name:   strings.ToLower(name),
		Policy: h.Policy,
		Solve: func(_ context.Context, in *core.Instance) (*core.Solution, bool, error) {
			sol, err := h.Run(in)
			if errors.Is(err, heuristics.ErrNoSolution) {
				return nil, true, nil
			}
			return sol, false, err
		},
	}, nil
}

func newTestManager(t *testing.T, opts Options) *Manager {
	t.Helper()
	if opts.Resolve == nil {
		opts.Resolve = testResolver
	}
	m := NewManager(opts)
	t.Cleanup(m.Close)
	return m
}

// coldSolve runs the named heuristic from scratch on in.
func coldSolve(t *testing.T, name string, in *core.Instance) (*core.Solution, bool) {
	t.Helper()
	h, ok := heuristics.ByName(strings.ToUpper(name))
	if !ok {
		t.Fatalf("unknown heuristic %q", name)
	}
	sol, err := h.Run(in)
	if errors.Is(err, heuristics.ErrNoSolution) {
		return nil, true
	}
	if err != nil {
		t.Fatalf("cold %s: %v", name, err)
	}
	return sol, false
}

// checkEquivalence pins the acceptance criterion: the session's current
// placement must be byte-identical (assignment portions, replica set,
// cost) to a cold full re-solve of the mutated instance. It reports
// whether that placement exists.
func checkEquivalence(t *testing.T, s *Session, name string, step int) (feasible bool) {
	t.Helper()
	mutated := s.InstanceCopy()
	wantSol, wantNoSol := coldSolve(t, name, mutated)
	st := s.Status()
	if st.NoSolution != wantNoSol {
		t.Fatalf("step %d: session no_solution=%v, cold=%v", step, st.NoSolution, wantNoSol)
	}
	if wantNoSol {
		if got := s.Replicas(); len(got) != 0 {
			t.Fatalf("step %d: infeasible session still reports replicas %v", step, got)
		}
		return false
	}
	if want := wantSol.StorageCost(mutated); st.Cost != want {
		t.Fatalf("step %d: session cost %d, cold cost %d", step, st.Cost, want)
	}
	if got, want := s.Replicas(), wantSol.Replicas(); !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: session replicas %v, cold replicas %v", step, got, want)
	}
	gotSol, ok := s.Solution()
	if !ok {
		t.Fatalf("step %d: session has no solution but cold does", step)
	}
	if !reflect.DeepEqual(gotSol.Assign, wantSol.Assign) {
		t.Fatalf("step %d: session assignment differs from cold re-solve\nsession: %v\ncold:    %v",
			step, gotSol, wantSol)
	}
	return true
}

// randomOps builds a delta batch against the session's current tree,
// avoiding removed clients. Mix: mostly set_rate, some set_capacity, a
// few add_client/remove_client.
func randomOps(rng *rand.Rand, s *Session, removed map[int]bool) []Op {
	tr := s.InstanceCopy().Tree
	clients := tr.Clients()
	alive := make([]int, 0, len(clients))
	for _, c := range clients {
		if !removed[c] {
			alive = append(alive, c)
		}
	}
	n := 1 + rng.Intn(3)
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		switch k := rng.Intn(10); {
		case k < 6 && len(alive) > 0:
			c := alive[rng.Intn(len(alive))]
			ops = append(ops, Op{Op: OpSetRate, Vertex: c, Value: int64(rng.Intn(60))})
		case k < 8:
			internal := tr.Internal()
			v := internal[rng.Intn(len(internal))]
			ops = append(ops, Op{Op: OpSetCapacity, Vertex: v, Value: int64(20 + rng.Intn(200))})
		case k < 9:
			internal := tr.Internal()
			ops = append(ops, Op{Op: OpAddClient, Parent: internal[rng.Intn(len(internal))], Rate: int64(1 + rng.Intn(40))})
		default:
			if len(alive) == 0 {
				continue
			}
			j := rng.Intn(len(alive))
			c := alive[j]
			alive = append(alive[:j], alive[j+1:]...)
			removed[c] = true
			ops = append(ops, Op{Op: OpRemoveClient, Vertex: c})
		}
	}
	if len(ops) == 0 {
		ops = append(ops, Op{Op: OpSetRate, Vertex: clients[0], Value: 1})
	}
	return ops
}

// TestSessionEquivalence is the acceptance test: random delta sequences
// against sessions for all three policies — Multiple (mg, incremental),
// Closest (cbu, incremental) and Upwards (utd, cold fallback) — checking
// after every applied batch that the incremental state is byte-identical
// to a cold full re-solve of the mutated instance.
func TestSessionEquivalence(t *testing.T) {
	solvers := []string{"mg", "cbu", "utd"}
	for _, name := range solvers {
		name := name
		t.Run(name, func(t *testing.T) {
			equivalenceWalk(t, name, gen.Config{
				Internal: 40, Clients: 120, Lambda: 0.5, Heterogeneous: true,
			})
		})
	}
}

// TestSessionEquivalenceLowLoad repeats the walk at a load where cbu and
// utd, which find no placement on the walk above, mostly find one, so
// their replica sets, diffs and feasibility transitions are checked too.
func TestSessionEquivalenceLowLoad(t *testing.T) {
	for _, name := range []string{"mg", "cbu", "utd"} {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := gen.Config{Internal: 40, Clients: 80, Lambda: 0.1}
			if feasible := equivalenceWalk(t, name, cfg); feasible < 80 {
				t.Fatalf("only %d of 164 checked states had a placement", feasible)
			}
		})
	}
}

// equivalenceWalk applies 40 random delta batches to one session per seed
// 1..4, checking equivalence with a cold re-solve after creation and after
// every batch. It returns how many of the checked states had a placement.
func equivalenceWalk(t *testing.T, name string, cfg gen.Config) (feasible int) {
	t.Helper()
	for seed := int64(1); seed <= 4; seed++ {
		m := newTestManager(t, Options{})
		s, err := m.Create(context.Background(), gen.Instance(cfg, seed), name, core.Multiple)
		if err != nil {
			t.Fatalf("seed %d: create: %v", seed, err)
		}
		if checkEquivalence(t, s, name, 0) {
			feasible++
		}
		rng := rand.New(rand.NewSource(seed * 7919))
		removed := map[int]bool{}
		for step := 1; step <= 40; step++ {
			ops := randomOps(rng, s, removed)
			if _, err := s.Apply(context.Background(), ops); err != nil {
				t.Fatalf("seed %d step %d: apply %+v: %v", seed, step, ops, err)
			}
			if checkEquivalence(t, s, name, step) {
				feasible++
			}
		}
	}
	return feasible
}

// TestSessionIncrementalModeUsed pins that small deltas on an mg session
// actually take the incremental path (the whole point of the subsystem),
// and that a topology change falls back to a full solve.
func TestSessionIncrementalModeUsed(t *testing.T) {
	m := newTestManager(t, Options{})
	in := gen.Instance(gen.Config{Internal: 60, Clients: 200, Lambda: 0.4}, 3)
	s, err := m.Create(context.Background(), in, "mg", core.Multiple)
	if err != nil {
		t.Fatal(err)
	}
	c := in.Tree.Clients()[5]
	res, err := s.Apply(context.Background(), []Op{{Op: OpSetRate, Vertex: c, Value: in.R[c] + 3}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "incremental" {
		t.Fatalf("single-client delta took mode %q, want incremental", res.Mode)
	}
	if res.Rev != 2 {
		t.Fatalf("rev = %d, want 2", res.Rev)
	}
	res, err = s.Apply(context.Background(), []Op{{Op: OpAddClient, Parent: in.Tree.Root(), Rate: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "full" {
		t.Fatalf("topology delta took mode %q, want full", res.Mode)
	}
	if len(res.AddedClients) != 1 || res.AddedClients[0] != in.Tree.Len() {
		t.Fatalf("added clients %v, want [%d]", res.AddedClients, in.Tree.Len())
	}
	st := m.Stats()
	if st.IncrementalSolves == 0 || st.FullSolves == 0 {
		t.Fatalf("stats did not count both modes: %+v", st)
	}
}

// TestSessionDirtyThresholdFallback: a batch dirtying most of the tree
// must fall back to a full sweep — and still be equivalent.
func TestSessionDirtyThresholdFallback(t *testing.T) {
	m := newTestManager(t, Options{DirtyThreshold: 0.05})
	in := gen.Instance(gen.Config{Internal: 30, Clients: 90, Lambda: 0.4}, 11)
	s, err := m.Create(context.Background(), in, "mg", core.Multiple)
	if err != nil {
		t.Fatal(err)
	}
	clients := in.Tree.Clients()
	ops := make([]Op, 0, len(clients)/2)
	for i := 0; i < len(clients)/2; i++ {
		ops = append(ops, Op{Op: OpSetRate, Vertex: clients[i*2], Value: int64(i%30 + 1)})
	}
	res, err := s.Apply(context.Background(), ops)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "full" {
		t.Fatalf("wide delta took mode %q, want full (threshold fallback)", res.Mode)
	}
	checkEquivalence(t, s, "mg", 1)
}

// TestSessionInfeasibleTransitions drives an mg session into and out of
// infeasibility and checks the watch diffs drop and re-add replicas.
func TestSessionInfeasibleTransitions(t *testing.T) {
	m := newTestManager(t, Options{})
	in := gen.Instance(gen.Config{Internal: 10, Clients: 20, Lambda: 0.5}, 5)
	s, err := m.Create(context.Background(), in, "mg", core.Multiple)
	if err != nil {
		t.Fatal(err)
	}
	// Zero every capacity: no placement can exist while any rate > 0.
	var ops []Op
	for _, v := range in.Tree.Internal() {
		ops = append(ops, Op{Op: OpSetCapacity, Vertex: v, Value: 0})
	}
	res, err := s.Apply(context.Background(), ops)
	if err != nil {
		t.Fatal(err)
	}
	if !res.NoSolution {
		t.Fatal("zero capacities should be infeasible")
	}
	if len(res.Drop) == 0 || len(s.Replicas()) != 0 {
		t.Fatalf("infeasible transition should drop all replicas: drop=%v left=%v", res.Drop, s.Replicas())
	}
	checkEquivalence(t, s, "mg", 1)
	// Restore generous capacity at the root only.
	res, err = s.Apply(context.Background(), []Op{{Op: OpSetCapacity, Vertex: in.Tree.Root(), Value: 1 << 40}})
	if err != nil {
		t.Fatal(err)
	}
	if res.NoSolution || len(res.Add) == 0 {
		t.Fatalf("recovery should re-add replicas: %+v", res.Diff)
	}
	checkEquivalence(t, s, "mg", 2)
}

func TestSessionApplyValidation(t *testing.T) {
	m := newTestManager(t, Options{})
	in := gen.Instance(gen.Config{Internal: 5, Clients: 10}, 1)
	s, err := m.Create(context.Background(), in, "mg", core.Multiple)
	if err != nil {
		t.Fatal(err)
	}
	client := in.Tree.Clients()[0]
	internal := in.Tree.Internal()[0]
	bad := [][]Op{
		{},
		{{Op: "rename", Vertex: 1}},
		{{Op: OpSetRate, Vertex: -1, Value: 1}},
		{{Op: OpSetRate, Vertex: in.Tree.Len() + 5, Value: 1}},
		{{Op: OpSetRate, Vertex: internal, Value: 1}},
		{{Op: OpSetRate, Vertex: client, Value: -2}},
		{{Op: OpSetCapacity, Vertex: client, Value: 1}},
		{{Op: OpSetCapacity, Vertex: internal, Value: -1}},
		{{Op: OpAddClient, Parent: client, Rate: 1}},
		{{Op: OpAddClient, Parent: -3, Rate: 1}},
		{{Op: OpAddClient, Parent: internal, Rate: -1}},
		{{Op: OpRemoveClient, Vertex: internal}},
		{{Op: OpRemoveClient, Vertex: client}, {Op: OpRemoveClient, Vertex: client}},
		{{Op: OpRemoveClient, Vertex: client}, {Op: OpSetRate, Vertex: client, Value: 1}},
	}
	for i, ops := range bad {
		if _, err := s.Apply(context.Background(), ops); err == nil {
			t.Errorf("bad batch %d (%+v) accepted", i, ops)
		}
	}
	if st := s.Status(); st.Rev != 1 {
		t.Fatalf("rejected batches bumped the revision to %d", st.Rev)
	}
	// A batch can target a client added earlier in the same batch.
	newID := in.Tree.Len()
	if _, err := s.Apply(context.Background(), []Op{
		{Op: OpAddClient, Parent: internal, Rate: 2},
		{Op: OpSetRate, Vertex: newID, Value: 7},
	}); err != nil {
		t.Fatalf("intra-batch reference rejected: %v", err)
	}
	mutated := s.InstanceCopy()
	if mutated.R[newID] != 7 {
		t.Fatalf("intra-batch set_rate lost: R[%d] = %d", newID, mutated.R[newID])
	}
}

// TestSessionRollbackOnSolverFault: a failing backend must leave the
// session untouched (same revision, same instance).
func TestSessionRollbackOnSolverFault(t *testing.T) {
	var fail bool
	resolve := func(name string, p core.Policy) (Solver, error) {
		return Solver{
			Name: "flaky", Policy: core.Multiple,
			Solve: func(_ context.Context, in *core.Instance) (*core.Solution, bool, error) {
				if fail {
					return nil, false, errors.New("backend fault")
				}
				sol, err := heuristics.MG(in)
				return sol, false, err
			},
		}, nil
	}
	m := newTestManager(t, Options{Resolve: resolve})
	in := gen.Instance(gen.Config{Internal: 8, Clients: 16}, 2)
	s, err := m.Create(context.Background(), in, "flaky", core.Multiple)
	if err != nil {
		t.Fatal(err)
	}
	before := s.InstanceCopy()
	c := in.Tree.Clients()[3]
	fail = true
	if _, err := s.Apply(context.Background(), []Op{{Op: OpSetRate, Vertex: c, Value: before.R[c] + 9}}); err == nil {
		t.Fatal("faulting solve did not error")
	}
	if _, err := s.Apply(context.Background(), []Op{{Op: OpAddClient, Parent: in.Tree.Root(), Rate: 1}}); err == nil {
		t.Fatal("faulting topology solve did not error")
	}
	after := s.InstanceCopy()
	if !reflect.DeepEqual(before.R, after.R) || after.Tree.Len() != before.Tree.Len() {
		t.Fatal("failed apply mutated the instance")
	}
	if st := s.Status(); st.Rev != 1 {
		t.Fatalf("failed apply bumped revision to %d", st.Rev)
	}
	fail = false
	if _, err := s.Apply(context.Background(), []Op{{Op: OpSetRate, Vertex: c, Value: 5}}); err != nil {
		t.Fatalf("session unusable after rollback: %v", err)
	}
}

// TestSessionStatsApplyNoDeadlock: Stats and the janitor take m.mu
// before a session's mu, while Apply updates manager counters from under
// s.mu — the counters are atomics precisely so that edge never inverts
// the lock order. Hammer both paths concurrently; an inversion deadlocks
// here.
func TestSessionStatsApplyNoDeadlock(t *testing.T) {
	m := newTestManager(t, Options{})
	in := gen.Instance(gen.Config{Internal: 8, Clients: 16}, 3)
	s, err := m.Create(context.Background(), in, "mg", core.Multiple)
	if err != nil {
		t.Fatal(err)
	}
	c := in.Tree.Clients()[0]
	const deltas = 200
	done := make(chan struct{})
	go func() {
		defer close(done)
		applied := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer close(applied)
			for i := 0; i < deltas; i++ {
				if _, err := s.Apply(context.Background(), []Op{{Op: OpSetRate, Vertex: c, Value: int64(i)}}); err != nil {
					t.Errorf("apply %d: %v", i, err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for {
				m.Stats()
				select {
				case <-applied:
					return
				default:
				}
			}
		}()
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent Apply and Stats deadlocked")
	}
	if st := m.Stats(); st.Deltas != deltas {
		t.Fatalf("Stats.Deltas = %d, want %d", st.Deltas, deltas)
	}
}

// TestSessionCreateCapBoundsPending: MaxSessions must bound in-flight
// create work, not just live instances — a second create arriving while
// the first is still inside its initial solve is rejected up front
// instead of running an expensive solve that is then discarded.
func TestSessionCreateCapBoundsPending(t *testing.T) {
	started := make(chan struct{}, 2)
	release := make(chan struct{})
	var solves atomic.Int32
	resolve := func(name string, p core.Policy) (Solver, error) {
		return Solver{
			Name: "slow", Policy: core.Multiple,
			Solve: func(_ context.Context, in *core.Instance) (*core.Solution, bool, error) {
				solves.Add(1)
				started <- struct{}{}
				<-release
				sol, err := heuristics.MG(in)
				return sol, false, err
			},
		}, nil
	}
	m := newTestManager(t, Options{Resolve: resolve, MaxSessions: 1})
	in := gen.Instance(gen.Config{Internal: 4, Clients: 8}, 1)
	errc := make(chan error, 1)
	go func() {
		_, err := m.Create(context.Background(), in, "slow", core.Multiple)
		errc <- err
	}()
	<-started // the first create is inside its initial solve
	if _, err := m.Create(context.Background(), in, "slow", core.Multiple); !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("create during in-flight solve: err = %v, want ErrTooManySessions", err)
	}
	close(release)
	if err := <-errc; err != nil {
		t.Fatalf("first create: %v", err)
	}
	if n := solves.Load(); n != 1 {
		t.Fatalf("the cap did not bound solve work: %d solves ran, want 1", n)
	}
	// The slot freed by a failed create is reusable: delete the live
	// session and create again.
	for _, st := range m.List() {
		if err := m.Delete(st.ID); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Create(context.Background(), in, "slow", core.Multiple); err != nil {
		t.Fatalf("create after delete: %v", err)
	}
}

func collectDiffs(t *testing.T, s *Session, fromRev uint64, haveFrom bool, want int) []Diff {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var got []Diff
	err := s.Watch(ctx, fromRev, haveFrom, func(d Diff) error {
		got = append(got, d)
		if len(got) == want {
			cancel()
		}
		return nil
	})
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("watch: %v", err)
	}
	if len(got) != want {
		t.Fatalf("watched %d diffs, want %d: %+v", len(got), want, got)
	}
	return got
}

// TestWatchReplayAndFold: replay from rev 0 reconstructs, by folding
// add/drop, exactly the current replica set.
func TestWatchReplayAndFold(t *testing.T) {
	m := newTestManager(t, Options{})
	in := gen.Instance(gen.Config{Internal: 25, Clients: 80, Lambda: 0.5, Heterogeneous: true}, 9)
	s, err := m.Create(context.Background(), in, "mg", core.Multiple)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	clients := in.Tree.Clients()
	for i := 0; i < 30; i++ {
		c := clients[rng.Intn(len(clients))]
		if _, err := s.Apply(context.Background(), []Op{{Op: OpSetRate, Vertex: c, Value: int64(rng.Intn(80))}}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Status()
	diffs := collectDiffs(t, s, 0, true, int(st.Rev))
	set := map[int]bool{}
	for i, d := range diffs {
		if d.Rev != uint64(i+1) {
			t.Fatalf("diff %d has rev %d", i, d.Rev)
		}
		for _, v := range d.Add {
			if set[v] {
				t.Fatalf("rev %d adds replica %d twice", d.Rev, v)
			}
			set[v] = true
		}
		for _, v := range d.Drop {
			if !set[v] {
				t.Fatalf("rev %d drops unknown replica %d", d.Rev, v)
			}
			delete(set, v)
		}
	}
	folded := make([]int, 0, len(set))
	for v := range set {
		folded = append(folded, v)
	}
	cur := s.Replicas()
	if len(folded) != len(cur) {
		t.Fatalf("folded %d replicas, current %d", len(folded), len(cur))
	}
	for _, v := range cur {
		if !set[v] {
			t.Fatalf("current replica %d missing from folded watch state", v)
		}
	}
	if last := diffs[len(diffs)-1]; last.Cost != st.Cost {
		t.Fatalf("last diff cost %d, status cost %d", last.Cost, st.Cost)
	}
}

func TestWatchSnapshotWithoutFrom(t *testing.T) {
	m := newTestManager(t, Options{})
	in := gen.Instance(gen.Config{Internal: 10, Clients: 30}, 4)
	s, err := m.Create(context.Background(), in, "cbu", core.Closest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(context.Background(), []Op{{Op: OpSetRate, Vertex: in.Tree.Clients()[0], Value: 2}}); err != nil {
		t.Fatal(err)
	}
	d := collectDiffs(t, s, 0, false, 1)[0]
	if d.Rev != s.Status().Rev {
		t.Fatalf("snapshot rev %d, want current %d", d.Rev, s.Status().Rev)
	}
	if !reflect.DeepEqual(d.Add, s.Replicas()) {
		t.Fatalf("snapshot add %v, want %v", d.Add, s.Replicas())
	}
	if len(d.Drop) != 0 {
		t.Fatalf("snapshot has drops: %v", d.Drop)
	}
}

func TestWatchStaleAndFutureRev(t *testing.T) {
	m := newTestManager(t, Options{DiffRetention: 4})
	in := gen.Instance(gen.Config{Internal: 10, Clients: 30}, 4)
	s, err := m.Create(context.Background(), in, "mg", core.Multiple)
	if err != nil {
		t.Fatal(err)
	}
	c := in.Tree.Clients()[1]
	for i := 0; i < 10; i++ {
		if _, err := s.Apply(context.Background(), []Op{{Op: OpSetRate, Vertex: c, Value: int64(i + 1)}}); err != nil {
			t.Fatal(err)
		}
	}
	// Revisions 1..11 exist; only the last 4 are retained.
	if err := s.Watch(context.Background(), 2, true, func(Diff) error { return nil }); !errors.Is(err, ErrStaleRev) {
		t.Fatalf("stale from_rev: got %v, want ErrStaleRev", err)
	}
	if err := s.Watch(context.Background(), 99, true, func(Diff) error { return nil }); !errors.Is(err, ErrFutureRev) {
		t.Fatalf("future from_rev: got %v, want ErrFutureRev", err)
	}
	// The newest retained window replays fine.
	st := s.Status()
	collectDiffs(t, s, st.FirstRev-1, true, int(st.Rev-st.FirstRev)+1)
}

func TestWatchLiveNotification(t *testing.T) {
	m := newTestManager(t, Options{})
	in := gen.Instance(gen.Config{Internal: 10, Clients: 30}, 6)
	s, err := m.Create(context.Background(), in, "mg", core.Multiple)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	got := make(chan Diff, 8)
	done := make(chan error, 1)
	go func() {
		done <- s.Watch(ctx, s.Status().Rev, true, func(d Diff) error {
			got <- d
			return nil
		})
	}()
	time.Sleep(20 * time.Millisecond) // let the watcher attach
	if _, err := s.Apply(context.Background(), []Op{{Op: OpSetRate, Vertex: in.Tree.Clients()[2], Value: 55}}); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-got:
		if d.Rev != 2 {
			t.Fatalf("live diff rev %d, want 2", d.Rev)
		}
	case <-ctx.Done():
		t.Fatal("no live diff delivered")
	}
	// Deleting the instance ends the stream.
	if err := m.Delete(s.ID()); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("watch after delete: got %v, want ErrClosed", err)
	}
}

func TestManagerLifecycle(t *testing.T) {
	m := newTestManager(t, Options{MaxSessions: 2})
	in := gen.Instance(gen.Config{Internal: 5, Clients: 10}, 1)
	s1, err := m.Create(context.Background(), in, "mg", core.Multiple)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(context.Background(), in, "cbu", core.Closest); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(context.Background(), in, "utd", core.Upwards); !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("cap not enforced: %v", err)
	}
	if got, err := m.Get(s1.ID()); err != nil || got != s1 {
		t.Fatalf("Get: %v", err)
	}
	if _, err := m.Get("pi-nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get unknown: %v", err)
	}
	if len(m.List()) != 2 {
		t.Fatalf("List: %d sessions", len(m.List()))
	}
	if err := m.Delete(s1.ID()); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(s1.ID()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	if _, err := s1.Apply(context.Background(), []Op{{Op: OpSetRate, Vertex: in.Tree.Clients()[0], Value: 1}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("apply on deleted session: %v", err)
	}
	st := m.Stats()
	if st.Live != 1 || st.Created != 3-1 /* third create failed */ {
		t.Fatalf("stats: %+v", st)
	}
}

func TestManagerTTLExpiry(t *testing.T) {
	m := newTestManager(t, Options{TTL: 50 * time.Millisecond})
	in := gen.Instance(gen.Config{Internal: 5, Clients: 10}, 1)
	s, err := m.Create(context.Background(), in, "mg", core.Multiple)
	if err != nil {
		t.Fatal(err)
	}
	// Poll Stats (not Get — Get touches the idle timer).
	deadline := time.Now().Add(10 * time.Second)
	for m.Stats().Live > 0 {
		if time.Now().After(deadline) {
			t.Fatal("session never expired")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if _, err := m.Get(s.ID()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expired session still resolvable: %v", err)
	}
	if st := m.Stats(); st.Expired == 0 {
		t.Fatalf("expiry not counted: %+v", st)
	}
}

// TestSessionRejectsBadSolver covers resolver-level rejections.
func TestSessionRejectsBadSolver(t *testing.T) {
	m := newTestManager(t, Options{})
	in := gen.Instance(gen.Config{Internal: 5, Clients: 10}, 1)
	if _, err := m.Create(context.Background(), in, "does-not-exist", core.Multiple); err == nil {
		t.Fatal("unknown solver accepted")
	}
	if _, err := m.Create(context.Background(), nil, "mg", core.Multiple); err == nil {
		t.Fatal("nil instance accepted")
	}
}
