package session

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/heuristics"
	"repro/internal/tree"
)

// Delta op names.
const (
	OpSetRate      = "set_rate"
	OpSetCapacity  = "set_capacity"
	OpAddClient    = "add_client"
	OpRemoveClient = "remove_client"
)

// Op is one typed delta operation. A PATCH body carries a batch of ops
// applied atomically under one revision bump.
type Op struct {
	// Op is one of set_rate, set_capacity, add_client, remove_client.
	Op string `json:"op"`
	// Vertex targets set_rate (a client), set_capacity (an internal
	// vertex) and remove_client (a client). Ids assigned to clients added
	// earlier in the same batch are valid targets.
	Vertex int `json:"vertex,omitempty"`
	// Value is the new rate (set_rate) or capacity (set_capacity).
	Value int64 `json:"value,omitempty"`
	// Parent is the internal vertex the new client attaches to
	// (add_client); the new id — Len() before the op — is returned in the
	// apply result.
	Parent int `json:"parent,omitempty"`
	// Rate is the new client's request rate (add_client).
	Rate int64 `json:"rate,omitempty"`
	// QoS/Comm/Bandwidth optionally set the new client's QoS bound and
	// its link's communication time and bandwidth cap (add_client);
	// omitted they default to unconstrained (and 1 hop).
	QoS       *int   `json:"qos,omitempty"`
	Comm      *int64 `json:"comm,omitempty"`
	Bandwidth *int64 `json:"bandwidth,omitempty"`
}

// Diff is one placement change: the replicas added and dropped by a
// revision, with the resulting storage cost. Watch streams these.
type Diff struct {
	Rev        uint64 `json:"rev"`
	Add        []int  `json:"add,omitempty"`
	Drop       []int  `json:"drop,omitempty"`
	Cost       int64  `json:"cost"`
	NoSolution bool   `json:"no_solution,omitempty"`
}

// ApplyResult reports one applied delta batch.
type ApplyResult struct {
	Diff
	// Mode is "incremental" (dirty-path recompute over memoized
	// summaries) or "full" (cold re-solve).
	Mode string `json:"mode"`
	// AddedClients are the vertex ids assigned to this batch's
	// add_client ops, in op order.
	AddedClients []int `json:"added_clients,omitempty"`
}

// Session is one registered placement instance: the mutable problem data,
// the solver, the current placement and the diff history watchers resume
// from. All methods are safe for concurrent use.
type Session struct {
	m      *Manager
	id     string
	solver Solver

	mu       sync.Mutex
	in       *core.Instance
	removed  []bool // tombstoned clients (rate pinned to 0)
	nRemoved int

	rev        uint64
	noSolution bool
	cost       int64
	reported   []bool // replica set of the last reported revision
	nReported  int

	dirty *tree.DirtySet
	inc   *heuristics.Incremental // nil for solvers without a memoized engine
	sol   *core.Solution          // fallback solvers: last cold solution

	diffs    []Diff // ring: diffs for revisions [firstRev, rev]
	diffHead int
	diffLen  int
	firstRev uint64

	notify   chan struct{} // closed and replaced on every applied revision
	watchers int
	closed   bool

	deltas   uint64
	created  time.Time
	lastUsed time.Time
}

// ID returns the instance id.
func (s *Session) ID() string { return s.id }

// SolverName returns the resolved solver's registry name.
func (s *Session) SolverName() string { return s.solver.Name }

// Policy returns the solver's access policy.
func (s *Session) Policy() core.Policy { return s.solver.Policy }

func (s *Session) touch() {
	s.mu.Lock()
	s.lastUsed = time.Now()
	s.mu.Unlock()
}

func (s *Session) idleSince(cutoff time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.watchers == 0 && s.lastUsed.Before(cutoff)
}

func (s *Session) watcherCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.watchers
}

func (s *Session) close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.notify) // wake watchers so their streams end
	}
	s.mu.Unlock()
}

// initialSolve computes revision 1 (the initial placement) and seeds the
// diff history with it.
func (s *Session) initialSolve(ctx context.Context) error {
	out, err := s.solveFull(ctx)
	if err != nil {
		return err
	}
	s.rev = 1
	s.firstRev = 1
	add, _ := s.install(out)
	s.pushDiff(Diff{Rev: 1, Add: add, Cost: s.cost, NoSolution: s.noSolution})
	return nil
}

// outcome is one solve's result in session terms.
type outcome struct {
	noSolution bool
	cost       int64          // 0 when noSolution
	sol        *core.Solution // backend solves only; the engine holds its own
}

// solveFull runs a cold full solve: the memoized engine's full sweep for
// incremental solvers, the backend otherwise.
func (s *Session) solveFull(ctx context.Context) (outcome, error) {
	if s.inc != nil {
		s.inc.Full(s.in)
		return s.engineOutcome(), nil
	}
	ctx, cancel := context.WithTimeout(ctx, s.m.opts.SolveTimeout)
	defer cancel()
	sol, noSol, err := s.solver.Solve(ctx, s.in)
	if err != nil {
		// Context errors (the solve timeout, a gone client) pass through
		// for their own status mapping; everything else is a backend fault.
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			return outcome{}, err
		}
		return outcome{}, fmt.Errorf("%w: solver %s: %w", ErrSolverFault, s.solver.Name, err)
	}
	out := outcome{noSolution: noSol, sol: sol}
	if !noSol {
		if sol == nil {
			return outcome{}, fmt.Errorf("%w: solver %s returned neither a solution nor infeasibility", ErrSolverFault, s.solver.Name)
		}
		if verr := sol.Validate(s.in, s.solver.Policy); verr != nil {
			return outcome{}, fmt.Errorf("%w: solver %s produced an invalid solution: %w", ErrSolverFault, s.solver.Name, verr)
		}
		out.cost = sol.StorageCost(s.in)
	}
	return out, nil
}

// engineOutcome reports the incremental engine's current result.
func (s *Session) engineOutcome() outcome {
	if s.inc.NoSolution() {
		return outcome{noSolution: true}
	}
	return outcome{cost: s.inc.Cost()}
}

// install makes out the current placement and returns the replicas it
// added and dropped, reconciling every reported flag in one scan. Caller
// holds the lock (or owns the session exclusively, as initialSolve does).
func (s *Session) install(out outcome) (add, drop []int) {
	add, drop = s.reconcile(func(v int) bool {
		switch {
		case out.noSolution:
			return false
		case s.inc != nil:
			return s.inc.IsReplica(v)
		}
		return out.sol.IsReplica(v)
	})
	s.noSolution, s.cost, s.sol = out.noSolution, out.cost, out.sol
	return add, drop
}

// Apply validates and applies a delta batch atomically: all ops or none,
// one revision bump, one re-solve, one diff. On a solver fault the
// mutation is rolled back and the revision unchanged.
func (s *Session) Apply(ctx context.Context, ops []Op) (*ApplyResult, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("session: empty delta batch")
	}
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	s.lastUsed = start

	adds, err := s.validateOps(ops)
	if err != nil {
		return nil, err
	}

	prevIn, prevRemoved, prevNRemoved := s.in, s.removed, s.nRemoved
	prevDirty := s.dirty
	var undo []scalarUndo
	var addedClients []int
	topo := adds > 0
	if topo {
		addedClients = s.applyTopo(ops, adds)
	} else {
		undo = s.applyScalars(ops)
	}

	mode := "full"
	var out outcome
	if s.inc != nil && !topo && s.dirty.InternalFraction() <= s.m.opts.DirtyThreshold {
		mode = "incremental"
		s.inc.Update(s.dirtyInternalDeepFirst())
		out = s.engineOutcome()
	} else {
		// For the engine, too much of the tree is dirty (or it changed
		// shape): one full sweep rebuilds every memo cheaper than chasing
		// root paths.
		out, err = s.solveFull(ctx)
		if err != nil {
			// Roll back: scalar ops are undone in place, topology ops
			// worked on copies the old instance never saw.
			if topo {
				s.in, s.removed, s.nRemoved, s.dirty = prevIn, prevRemoved, prevNRemoved, prevDirty
			} else {
				s.undoScalars(undo)
			}
			s.dirty.Reset()
			return nil, err
		}
	}
	s.dirty.Reset()

	s.rev++
	d := Diff{Rev: s.rev, Cost: out.cost, NoSolution: out.noSolution}
	if mode == "incremental" && !s.noSolution && !out.noSolution {
		// Both revisions feasible: the engine's flips are exactly the
		// replica churn; reported flags track them in O(dirty).
		for _, v := range s.inc.Flips() {
			if s.inc.IsReplica(v) {
				d.Add = append(d.Add, v)
				s.reported[v] = true
				s.nReported++
			} else {
				d.Drop = append(d.Drop, v)
				s.reported[v] = false
				s.nReported--
			}
		}
		s.cost = out.cost
	} else {
		// A full solve or a feasibility transition.
		d.Add, d.Drop = s.install(out)
	}
	sort.Ints(d.Add)
	sort.Ints(d.Drop)
	s.pushDiff(d)

	old := s.notify
	s.notify = make(chan struct{})
	close(old)

	// Manager counters are atomics: taking m.mu here (under s.mu) would
	// invert the Manager lock order and deadlock against Stats/janitor.
	s.deltas++
	m := s.m
	m.deltas.Add(1)
	m.ops.Add(uint64(len(ops)))
	if mode == "incremental" {
		m.incSolves.Add(1)
	} else {
		m.fullSolves.Add(1)
	}
	m.applyHist.Observe(time.Since(start))

	res := &ApplyResult{Diff: d, Mode: mode, AddedClients: addedClients}
	return res, nil
}

type scalarUndo struct {
	rate   bool // else capacity / removal
	remove bool
	v      int
	old    int64
}

// validateOps checks the whole batch against the current state (tracking
// ids and tombstones introduced by earlier ops in the same batch) and
// returns the number of add_client ops.
func (s *Session) validateOps(ops []Op) (adds int, err error) {
	n := s.in.Tree.Len()
	var batchRemoved map[int]bool
	virtual := n
	for i, op := range ops {
		fail := func(format string, args ...any) (int, error) {
			return 0, fmt.Errorf("session: op %d (%s): %s", i, op.Op, fmt.Sprintf(format, args...))
		}
		isClient := func(v int) bool {
			if v >= n {
				return true // batch-added vertices are always clients
			}
			return s.in.Tree.IsClient(v)
		}
		removed := func(v int) bool {
			if v < n && s.removed[v] {
				return true
			}
			return batchRemoved[v]
		}
		switch op.Op {
		case OpSetRate:
			if op.Vertex < 0 || op.Vertex >= virtual {
				return fail("vertex %d out of range [0,%d)", op.Vertex, virtual)
			}
			if !isClient(op.Vertex) {
				return fail("vertex %d is not a client", op.Vertex)
			}
			if removed(op.Vertex) {
				return fail("client %d was removed", op.Vertex)
			}
			if op.Value < 0 {
				return fail("negative rate %d", op.Value)
			}
		case OpSetCapacity:
			if op.Vertex < 0 || op.Vertex >= n {
				return fail("vertex %d out of range [0,%d)", op.Vertex, n)
			}
			if isClient(op.Vertex) {
				return fail("vertex %d is not an internal vertex", op.Vertex)
			}
			if op.Value < 0 {
				return fail("negative capacity %d", op.Value)
			}
		case OpAddClient:
			if op.Parent < 0 || op.Parent >= n || s.in.Tree.IsClient(op.Parent) {
				return fail("parent %d is not an existing internal vertex", op.Parent)
			}
			if op.Rate < 0 {
				return fail("negative rate %d", op.Rate)
			}
			if op.QoS != nil && *op.QoS < 0 && *op.QoS != core.NoQoS {
				return fail("invalid qos %d", *op.QoS)
			}
			if op.Comm != nil && *op.Comm < 0 {
				return fail("negative comm %d", *op.Comm)
			}
			if op.Bandwidth != nil && *op.Bandwidth < 0 && *op.Bandwidth != core.NoBandwidth {
				return fail("invalid bandwidth %d", *op.Bandwidth)
			}
			adds++
			virtual++
		case OpRemoveClient:
			if op.Vertex < 0 || op.Vertex >= virtual {
				return fail("vertex %d out of range [0,%d)", op.Vertex, virtual)
			}
			if !isClient(op.Vertex) {
				return fail("vertex %d is not a client", op.Vertex)
			}
			if removed(op.Vertex) {
				return fail("client %d was already removed", op.Vertex)
			}
			if batchRemoved == nil {
				batchRemoved = map[int]bool{}
			}
			batchRemoved[op.Vertex] = true
		default:
			return fail("unknown op %q (want set_rate, set_capacity, add_client or remove_client)", op.Op)
		}
	}
	return adds, nil
}

// applyScalars mutates the instance in place for a topology-preserving
// batch, marking dirty root paths and recording an undo log.
func (s *Session) applyScalars(ops []Op) []scalarUndo {
	undo := make([]scalarUndo, 0, len(ops))
	for _, op := range ops {
		switch op.Op {
		case OpSetRate:
			undo = append(undo, scalarUndo{rate: true, v: op.Vertex, old: s.in.R[op.Vertex]})
			s.in.R[op.Vertex] = op.Value
			s.dirty.MarkPath(op.Vertex)
		case OpSetCapacity:
			undo = append(undo, scalarUndo{v: op.Vertex, old: s.in.W[op.Vertex]})
			s.in.W[op.Vertex] = op.Value
			s.dirty.MarkPath(op.Vertex)
		case OpRemoveClient:
			undo = append(undo, scalarUndo{remove: true, v: op.Vertex, old: s.in.R[op.Vertex]})
			s.in.R[op.Vertex] = 0
			s.removed[op.Vertex] = true
			s.nRemoved++
			s.dirty.MarkPath(op.Vertex)
		}
	}
	return undo
}

func (s *Session) undoScalars(undo []scalarUndo) {
	for i := len(undo) - 1; i >= 0; i-- {
		u := undo[i]
		switch {
		case u.rate:
			s.in.R[u.v] = u.old
		case u.remove:
			s.in.R[u.v] = u.old
			s.removed[u.v] = false
			s.nRemoved--
		default:
			s.in.W[u.v] = u.old
		}
	}
}

// applyTopo applies a batch containing add_client ops: the parameter
// vectors are copied once with room for every newcomer, ops run in order
// against the copies, and the tree is rebuilt once at the end. Existing
// vertex ids are stable (newcomers append).
func (s *Session) applyTopo(ops []Op, adds int) (addedClients []int) {
	old := s.in
	n := old.Tree.Len()
	grow := func(v []int64) []int64 {
		out := make([]int64, n, n+adds)
		copy(out, v)
		return out
	}
	in := &core.Instance{R: grow(old.R), W: grow(old.W), S: grow(old.S)}
	anyQoS := old.Q != nil
	anyComm := old.Comm != nil
	anyBW := old.BW != nil
	for _, op := range ops {
		if op.Op != OpAddClient {
			continue
		}
		anyQoS = anyQoS || op.QoS != nil
		anyComm = anyComm || op.Comm != nil
		anyBW = anyBW || op.Bandwidth != nil
	}
	if anyQoS {
		in.Q = make([]int, n, n+adds)
		if old.Q != nil {
			copy(in.Q, old.Q)
		} else {
			for v := range in.Q {
				in.Q[v] = core.NoQoS
			}
		}
	}
	if anyComm {
		in.Comm = make([]int64, n, n+adds)
		if old.Comm != nil {
			copy(in.Comm, old.Comm)
		} else {
			for v := range in.Comm {
				in.Comm[v] = 1 // nil Comm counts every link as one hop
			}
		}
	}
	if anyBW {
		in.BW = make([]int64, n, n+adds)
		if old.BW != nil {
			copy(in.BW, old.BW)
		} else {
			for v := range in.BW {
				in.BW[v] = core.NoBandwidth
			}
		}
	}
	parents := make([]int, n, n+adds)
	copy(parents, old.Tree.Parents())
	isClient := make([]bool, n, n+adds)
	copy(isClient, old.Tree.ClientFlags())
	removed := make([]bool, n, n+adds)
	copy(removed, s.removed)
	nRemoved := s.nRemoved

	for _, op := range ops {
		switch op.Op {
		case OpSetRate:
			in.R[op.Vertex] = op.Value
		case OpSetCapacity:
			in.W[op.Vertex] = op.Value
		case OpRemoveClient:
			in.R[op.Vertex] = 0
			removed[op.Vertex] = true
			nRemoved++
		case OpAddClient:
			id := len(parents)
			parents = append(parents, op.Parent)
			isClient = append(isClient, true)
			removed = append(removed, false)
			in.R = append(in.R, op.Rate)
			in.W = append(in.W, 0)
			in.S = append(in.S, 0)
			if in.Q != nil {
				q := core.NoQoS
				if op.QoS != nil {
					q = *op.QoS
				}
				in.Q = append(in.Q, q)
			}
			if in.Comm != nil {
				c := int64(1)
				if op.Comm != nil {
					c = *op.Comm
				}
				in.Comm = append(in.Comm, c)
			}
			if in.BW != nil {
				bw := core.NoBandwidth
				if op.Bandwidth != nil {
					bw = *op.Bandwidth
				}
				in.BW = append(in.BW, bw)
			}
			addedClients = append(addedClients, id)
		}
	}
	t, err := tree.FromParents(parents, isClient)
	if err != nil {
		// validateOps admits only existing internal parents, so the
		// rebuilt tree cannot be malformed.
		panic(fmt.Sprintf("session: rebuilt tree invalid: %v", err))
	}
	in.Tree = t
	s.in = in
	s.removed = removed
	s.nRemoved = nRemoved
	s.dirty = tree.NewDirtySet(t)
	if len(s.reported) < t.Len() {
		grown := make([]bool, t.Len())
		copy(grown, s.reported)
		s.reported = grown
	}
	return addedClients
}

// dirtyInternalDeepFirst returns the dirty internal vertices ordered
// children before parents (depth descending — sufficient because the
// dirty set is a union of root paths, so equal-depth members are
// unrelated).
func (s *Session) dirtyInternalDeepFirst() []int {
	t := s.in.Tree
	verts := s.dirty.Vertices()
	out := make([]int, 0, len(verts))
	for _, v := range verts {
		if t.IsInternal(v) {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return t.Depth(out[i]) > t.Depth(out[j]) })
	return out
}

// reconcile diffs the reported replica flags against now(v) over every
// internal vertex, updating them in place. O(internal) — used by full
// solves and feasibility transitions, whose solve already paid O(n).
func (s *Session) reconcile(now func(v int) bool) (add, drop []int) {
	for _, v := range s.in.Tree.Internal() {
		cur := now(v)
		if cur == s.reported[v] {
			continue
		}
		if cur {
			add = append(add, v)
			s.nReported++
		} else {
			drop = append(drop, v)
			s.nReported--
		}
		s.reported[v] = cur
	}
	return add, drop
}

// replicasLocked returns the reported replica set, ascending. Caller
// holds the lock.
func (s *Session) replicasLocked() []int {
	out := make([]int, 0, s.nReported)
	for _, v := range s.in.Tree.Internal() {
		if s.reported[v] {
			out = append(out, v)
		}
	}
	return out
}

// pushDiff appends a diff to the retention ring, dropping the oldest
// revision once full. Caller holds the lock.
func (s *Session) pushDiff(d Diff) {
	keep := s.m.opts.DiffRetention
	if s.diffs == nil {
		s.diffs = make([]Diff, keep)
	}
	if s.diffLen == keep {
		s.diffs[s.diffHead] = d
		s.diffHead = (s.diffHead + 1) % keep
		s.firstRev++
		return
	}
	s.diffs[(s.diffHead+s.diffLen)%keep] = d
	s.diffLen++
}

// diffAt returns the retained diff for revision r. Caller holds the lock.
func (s *Session) diffAt(r uint64) (Diff, bool) {
	if r < s.firstRev || r >= s.firstRev+uint64(s.diffLen) {
		return Diff{}, false
	}
	i := (s.diffHead + int(r-s.firstRev)) % s.m.opts.DiffRetention
	return s.diffs[i], true
}
