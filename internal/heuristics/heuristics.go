// Package heuristics implements the eight polynomial heuristics of
// Section 6 for the Replica Cost problem — three for the Closest policy
// (CTDA, CTDLF, CBU), two for Upwards (UTD, UBCF), three for Multiple
// (MTD, MBU, MG) — plus the MixedBest combination used in the Section 7
// experiments. All heuristics run in worst-case quadratic time in the
// problem size s = |C| + |N| and return fully validated solutions.
//
// MG and CBU, the two subtree-local heuristics, are one bottom-up sweep
// each and share one implementation: the memoized engine Incremental. A
// cold MG/CBU is its full sweep; placement sessions (internal/session)
// keep an engine per session and recompute only the dirty root paths.
// NewIncremental is the one place that says which heuristics qualify.
// MGBW runs the same sweep and then checks every link.
//
// The Closest top-down heuristics (CTDA, CTDLF, CTDA-QoS, CTDA-BW) are one
// body, topDown, and the UBCF ones (UBCF, UBCF-QoS, UBCF-BW) another,
// bigClientFirst; each takes the constraints it honours as arguments.
//
// The mutable working set of a run (pending requests, remaining requests,
// replica flags, assignment buffers, sort scratch) lives in a pooled state
// shared across solves, so a steady-state solve allocates only the
// returned Solution. Scratch slices are views into pooled arrays and are
// never retained past a solve; the returned Solution owns its memory.
package heuristics

import (
	"errors"
	"sync"

	"repro/internal/core"
	"repro/internal/tree"
)

// ErrNoSolution is returned when a heuristic fails to cover all requests.
// This does not imply the instance is infeasible (except for MG, which is
// exact on feasibility for the Multiple policy).
var ErrNoSolution = errors.New("heuristics: no solution found")

// Func is a placement heuristic.
type Func func(in *core.Instance) (*core.Solution, error)

// Heuristic describes one registered heuristic.
type Heuristic struct {
	// Name is the paper's short name (e.g. "CTDA").
	Name string
	// Long is the paper's full name (e.g. "ClosestTopDownAll").
	Long string
	// Policy is the access policy the produced solutions obey.
	Policy core.Policy
	// Run executes the heuristic.
	Run Func
}

// All lists the eight heuristics in the paper's presentation order.
// MixedBest is separate (see MB) because it composes the other eight.
var All = []Heuristic{
	{"CTDA", "ClosestTopDownAll", core.Closest, CTDA},
	{"CTDLF", "ClosestTopDownLargestFirst", core.Closest, CTDLF},
	{"CBU", "ClosestBottomUp", core.Closest, CBU},
	{"UTD", "UpwardsTopDown", core.Upwards, UTD},
	{"UBCF", "UpwardsBigClientFirst", core.Upwards, UBCF},
	{"MTD", "MultipleTopDown", core.Multiple, MTD},
	{"MBU", "MultipleBottomUp", core.Multiple, MBU},
	{"MG", "MultipleGreedy", core.Multiple, MG},
}

// allFuncs lists the scratch-level bodies of the eight heuristics in the
// same order as All; MB iterates it without materializing losing runs.
var allFuncs = []func(*state) error{ctda, ctdlf, cbu, utd, ubcf, mtd, mbu, mg}

// ByName returns the registered heuristic with the given short name.
func ByName(name string) (Heuristic, bool) {
	for _, h := range All {
		if h.Name == name {
			return h, true
		}
	}
	if name == "MB" {
		return Heuristic{"MB", "MixedBest", core.Multiple, MB}, true
	}
	return Heuristic{}, false
}

// state is the shared mutable working set of a heuristic run: pending
// requests per subtree (the paper's inreq), remaining requests per client,
// the assignment being built, and the scratch buffers every pass reuses.
// States are pooled; a run gets one with newState, works on it, and
// releases it, so steady-state solves don't touch the allocator.
type state struct {
	in    *core.Instance
	inreq []int64 // pending requests reaching each vertex from its subtree
	rrem  []int64 // remaining (unassigned) requests per client
	repl  []bool  // replica flags

	ports [][]core.Portion // per-client portions being built

	pending []int   // pendingClients result buffer
	queue   []int   // BFS/DFS traversal buffer
	order   []int   // client-ordering buffer (UBCF-style passes)
	tmp     []int   // merge-sort scratch
	key     []int64 // per-vertex sort keys (QoS slack)
	seen    []bool  // cost() replica marker
	capLeft []int64 // remaining server capacity (UBCF-style passes)
	bwLeft  []int64 // remaining link bandwidth (bandwidth variants)

	sweeper Incremental // the MG/CBU engine, its memos pooled with the state
}

var statePool = sync.Pool{New: func() any { return new(state) }}

// grown returns s with length n, reallocating only when the capacity is
// too small. Contents are unspecified; callers zero what they use.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// newState pulls a pooled state and initializes it for the instance.
func newState(in *core.Instance) *state {
	st := statePool.Get().(*state)
	st.reset(in)
	return st
}

// release returns the state to the pool. No slice handed out by the state
// may be used after this call.
func (st *state) release() {
	st.in = nil
	st.sweeper.in = nil
	statePool.Put(st)
}

// reset re-initializes the state for (another) run on in.
func (st *state) reset(in *core.Instance) {
	t := in.Tree
	n := t.Len()
	st.in = in
	st.inreq = grown(st.inreq, n)
	st.rrem = grown(st.rrem, n)
	st.repl = grown(st.repl, n)
	st.key = grown(st.key, n)
	st.seen = grown(st.seen, n)
	st.capLeft = grown(st.capLeft, n)
	st.bwLeft = grown(st.bwLeft, n)
	st.pending = grown(st.pending, n)[:0]
	st.queue = grown(st.queue, n)[:0]
	st.order = grown(st.order, n)[:0]
	st.tmp = grown(st.tmp, n)[:0]
	if cap(st.ports) < n {
		ports := make([][]core.Portion, n)
		copy(ports, st.ports)
		st.ports = ports
	}
	st.ports = st.ports[:n]
	for v := 0; v < n; v++ {
		st.inreq[v] = 0
		st.rrem[v] = 0
		st.repl[v] = false
		st.ports[v] = st.ports[v][:0]
	}
	for _, v := range t.PostOrder() {
		if t.IsClient(v) {
			st.rrem[v] = in.R[v]
			st.inreq[v] = in.R[v]
			continue
		}
		for _, c := range t.Children(v) {
			st.inreq[v] += st.inreq[c]
		}
	}
}

// run executes a scratch-level heuristic body on a pooled state and
// materializes its solution.
func run(in *core.Instance, f func(*state) error) (*core.Solution, error) {
	st := newState(in)
	defer st.release()
	if err := f(st); err != nil {
		return nil, err
	}
	return st.materialize(), nil
}

// assign gives x pending requests of client c to server s, updating the
// inreq of every ancestor of c (the paper's deleteRequests bookkeeping).
func (st *state) assign(c, s int, x int64) {
	if x <= 0 {
		return
	}
	ps := st.ports[c]
	merged := false
	for i := range ps {
		if ps[i].Server == s {
			ps[i].Load += x
			merged = true
			break
		}
	}
	if !merged {
		st.ports[c] = append(ps, core.Portion{Server: s, Load: x})
	}
	st.rrem[c] -= x
	st.inreq[c] -= x
	t := st.in.Tree
	for a := t.Parent(c); a != tree.None; a = t.Parent(a) {
		st.inreq[a] -= x
	}
	st.repl[s] = true
}

// pendingClients returns the clients under s that still have requests, in
// subtree preorder. The result is a view into a shared buffer, valid only
// until the next pendingClients call on this state.
func (st *state) pendingClients(s int) []int {
	out := st.pending[:0]
	for _, c := range st.in.Tree.ClientsUnder(s) {
		if st.rrem[c] > 0 {
			out = append(out, c)
		}
	}
	st.pending = out
	return out
}

// serveAll assigns every pending request under s to s (used by the Closest
// heuristics, whose replicas always absorb their whole pending subtree).
func (st *state) serveAll(s int) {
	for _, c := range st.pendingClients(s) {
		st.assign(c, s, st.rrem[c])
	}
	st.repl[s] = true
}

// covered reports whether every request has been assigned.
func (st *state) covered() bool {
	return st.inreq[st.in.Tree.Root()] == 0
}

// finish validates coverage; the caller then materializes the solution.
func (st *state) finish() error {
	if !st.covered() {
		return ErrNoSolution
	}
	return nil
}

// materialize builds the returned Solution from the scratch assignment:
// one portion slab plus the per-client headers, so the Solution owns its
// memory and a steady-state solve allocates nothing else.
func (st *state) materialize() *core.Solution {
	return core.NewSolutionFromPortions(st.ports, st.in.Tree.Clients())
}

// cost returns the storage cost of the placement currently recorded in
// the scratch assignment (the distinct servers holding load), without
// materializing a Solution.
func (st *state) cost() int64 {
	t := st.in.Tree
	for _, j := range t.Internal() {
		st.seen[j] = false
	}
	var total int64
	for _, c := range t.Clients() {
		for _, p := range st.ports[c] {
			if !st.seen[p.Server] {
				st.seen[p.Server] = true
				total += st.in.S[p.Server]
			}
		}
	}
	return total
}

// sortByKey stable-sorts ids in place by key[id] (descending when desc,
// else ascending), using tmp as merge scratch (cap(tmp) >= len(ids)).
// It is the allocation-free replacement for sort.SliceStable on the hot
// paths; ties keep their input order.
func sortByKey(ids []int, key []int64, desc bool, tmp []int) {
	n := len(ids)
	if n < 2 {
		return
	}
	tmp = tmp[:n]
	src, dst := ids, tmp
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid, hi := lo+width, lo+2*width
			if mid > n {
				mid = n
			}
			if hi > n {
				hi = n
			}
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				ki, kj := key[src[i]], key[src[j]]
				take := ki <= kj
				if desc {
					take = ki >= kj
				}
				if take {
					dst[k] = src[i]
					i++
				} else {
					dst[k] = src[j]
					j++
				}
				k++
			}
			for i < mid {
				dst[k] = src[i]
				i++
				k++
			}
			for j < hi {
				dst[k] = src[j]
				j++
				k++
			}
		}
		src, dst = dst, src
	}
	if &src[0] != &ids[0] {
		copy(ids, src)
	}
}

// deleteRequests is the paper's deleteRequests: it serves pending clients
// under s at s in remaining-request order (non-increasing when desc, ties
// in subtree preorder), whole clients while they fit in budget. The
// Upwards version (Algorithm 6, split false) skips a client that does not
// fit; the Multiple one (Algorithm 10, with the obvious typo fixed: the
// partial deletion subtracts the deleted amount, not the client's
// residue) serves part of it and stops.
func (st *state) deleteRequests(s int, budget int64, desc, split bool) {
	cs := st.pendingClients(s)
	sortByKey(cs, st.rrem, desc, st.tmp)
	for _, c := range cs {
		if st.rrem[c] <= budget {
			budget -= st.rrem[c]
			st.assign(c, s, st.rrem[c])
			if budget == 0 {
				return
			}
		} else if split {
			st.assign(c, s, budget)
			return
		}
	}
}
