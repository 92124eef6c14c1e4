package heuristics

import (
	"strings"

	"repro/internal/core"
)

// pend is one client's requests still unserved while climbing the tree —
// the element of the per-vertex escape and served lists.
type pend struct {
	c   int
	rem int64
}

// Incremental is the memoized bottom-up engine, the one implementation of
// the two subtree-local heuristics MG and CBU. The decision at a vertex v
// is a pure function of the pending requests escaping v's child subtrees,
// so the engine memoizes, per internal vertex, the escape list (clients
// with requests still pending above v, in client preorder) and the
// portions served at v.
//
// Full sweeps the whole tree bottom-up; a cold MG/CBU is exactly that on a
// pooled engine. Update recomputes only the vertices a delta dirtied,
// children before parents, reusing every clean subtree's memo; since the
// sweep reads nothing but those memos, the result is byte-identical to a
// Full sweep of the mutated instance. Placement sessions drive it that way.
type Incremental struct {
	greedy bool // MG: absorb up to capacity; otherwise CBU: all or nothing
	in     *core.Instance

	esc   [][]pend // per internal vertex: pending escaping subtree(v), client preorder
	taken [][]pend // per internal vertex: (client, load) served at v
	repl  []bool

	cost int64 // Σ S[v] over replica vertices

	pending []pend  // MG: the requests pending at a partially absorbing vertex
	rem     []int64 // MG: remaining requests per pending position
	order   []int   // MG: pending positions, smallest remaining first
	tmp     []int   // merge-sort scratch
	flips   []int   // vertices whose replica flag changed in the last pass
}

// NewIncremental returns an engine for the named heuristic (its short
// name, case-insensitive), or nil when the heuristic is not subtree-local
// and so cannot be recomputed over dirty root paths.
func NewIncremental(name string) *Incremental {
	switch {
	case strings.EqualFold(name, "MG"):
		return &Incremental{greedy: true}
	case strings.EqualFold(name, "CBU"):
		return &Incremental{}
	}
	return nil
}

// Full (re)computes every memo for in with one bottom-up sweep. It must
// be called before Update and after any topology change.
func (b *Incremental) Full(in *core.Instance) {
	b.in = in
	n := in.Tree.Len()
	b.esc, b.taken, b.repl = grown(b.esc, n), grown(b.taken, n), grown(b.repl, n)
	for v := 0; v < n; v++ {
		b.esc[v] = b.esc[v][:0]
		b.taken[v] = b.taken[v][:0]
		b.repl[v] = false
	}
	b.cost = 0
	b.flips = b.flips[:0]
	t := in.Tree
	for _, v := range t.PostOrder() {
		if t.IsInternal(v) {
			b.recompute(v)
		}
	}
}

// Update recomputes the dirty internal vertices, which the caller passes
// children before parents (depth descending suffices: a dirty set is a
// union of root paths, so same-depth dirty vertices are unrelated). The
// root must be among them, so that Cost and NoSolution end up current.
func (b *Incremental) Update(dirty []int) {
	b.flips = b.flips[:0]
	for _, v := range dirty {
		b.recompute(v)
	}
}

// recompute re-derives taken/esc at internal vertex v from its children's
// memos: one step of the bottom-up sweep.
func (b *Incremental) recompute(v int) {
	t := b.in.Tree
	var total int64
	for _, ch := range t.Children(v) {
		if t.IsClient(ch) {
			total += b.in.R[ch]
		} else {
			total += b.escaping(ch)
		}
	}

	taken := b.taken[v][:0]
	esc := b.esc[v][:0]
	w := b.in.W[v]
	switch {
	case total == 0:
	case w >= total:
		// Everything fits: CBU (Algorithm 5) and MG alike absorb the
		// whole pending subtree. The order of a served list is free —
		// no client appears in it twice.
		taken = b.gather(taken, v)
	case !b.greedy || w == 0:
		// CBU defers a subtree that does not fit whole to the ancestors,
		// and a server without capacity defers everything.
		esc = b.gather(esc, v)
	default:
		// MG: absorb W with Algorithm 10's delete — whole clients
		// smallest remaining first (ties in preorder), then one partial
		// client.
		pending := b.gather(b.pending[:0], v)
		k := len(pending)
		rem, order := grown(b.rem, k), grown(b.order, k)
		b.tmp = grown(b.tmp, k)
		for i, p := range pending {
			rem[i], order[i] = p.rem, i
		}
		sortByKey(order, rem, false, b.tmp)
		budget := w
		for _, i := range order {
			x := min(rem[i], budget)
			taken = append(taken, pend{pending[i].c, x})
			rem[i] -= x
			if budget -= x; budget == 0 {
				break
			}
		}
		for i, p := range pending {
			if rem[i] > 0 {
				esc = append(esc, pend{p.c, rem[i]})
			}
		}
		b.pending, b.rem, b.order = pending, rem, order
	}
	b.taken[v] = taken
	b.esc[v] = esc

	if now := len(taken) > 0; now != b.repl[v] {
		b.repl[v] = now
		if now {
			b.cost += b.in.S[v]
		} else {
			b.cost -= b.in.S[v]
		}
		b.flips = append(b.flips, v)
	}
}

// gather appends the requests pending at internal vertex v to dst: its
// client children with requests and its internal children's escape
// lists, in child order, which is client preorder.
func (b *Incremental) gather(dst []pend, v int) []pend {
	t := b.in.Tree
	for _, ch := range t.Children(v) {
		if !t.IsClient(ch) {
			dst = append(dst, b.esc[ch]...)
		} else if r := b.in.R[ch]; r > 0 {
			dst = append(dst, pend{ch, r})
		}
	}
	return dst
}

// escaping returns the requests that leave subtree(v) unserved.
func (b *Incremental) escaping(v int) int64 {
	var sum int64
	for _, p := range b.esc[v] {
		sum += p.rem
	}
	return sum
}

// NoSolution reports whether requests escape the root: for MG exact
// infeasibility under the Multiple policy, for CBU the heuristic's
// failure. Both are what the cold run reports as ErrNoSolution.
func (b *Incremental) NoSolution() bool { return b.escaping(b.in.Tree.Root()) > 0 }

// Cost is the storage cost of the current replica set.
func (b *Incremental) Cost() int64 { return b.cost }

// IsReplica reports whether vertex v currently serves requests.
func (b *Incremental) IsReplica(v int) bool { return b.repl[v] }

// Flips returns the vertices whose replica flag changed in the last Full
// or Update. The slice is reused by the next pass.
func (b *Incremental) Flips() []int { return b.flips }

// Solution materializes the current assignment as a new Solution.
func (b *Incremental) Solution() *core.Solution {
	t := b.in.Tree
	ports := make([][]core.Portion, t.Len())
	b.fill(ports)
	return core.NewSolutionFromPortions(ports, t.Clients())
}

// fill appends every served portion to its client's list, servers in
// post-order: the order a bottom-up sweep makes its assignments in.
func (b *Incremental) fill(ports [][]core.Portion) {
	t := b.in.Tree
	for _, v := range t.PostOrder() {
		for _, p := range b.taken[v] {
			ports[p.c] = append(ports[p.c], core.Portion{Server: v, Load: p.rem})
		}
	}
}

// sweep runs the engine's full sweep on the pooled state and records its
// assignment in st.ports, for materialize and cost.
func (st *state) sweep(greedy bool) error {
	b := &st.sweeper
	b.greedy = greedy
	b.Full(st.in)
	if b.NoSolution() {
		return ErrNoSolution
	}
	b.fill(st.ports)
	return nil
}
