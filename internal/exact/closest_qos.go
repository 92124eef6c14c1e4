package exact

import (
	"errors"
	"math"

	"repro/internal/core"
)

// ClosestHomogeneousQoS solves Replica Counting under the Closest policy
// on homogeneous platforms with per-client QoS distance bounds — the
// "QoS=distance" setting the paper cites as polynomial from Liu, Lin and
// Wu [9].
//
// The algorithm extends the tree-partition greedy of ClosestHomogeneous
// with forced placements: walking bottom-up, a node v must receive a
// replica when some pending client's QoS bound excludes every ancestor of
// v (v is the client's last eligible server). Capacity overflows are
// resolved as before by promoting the internal child carrying the
// heaviest pending load. Placing a forced replica as high as the QoS
// permits dominates any lower placement (it absorbs at least as much),
// and the capacity greedy is the Kundu-Misra rule; optimality is
// cross-validated against the brute-force solver on randomized QoS
// instances in the tests.
func ClosestHomogeneousQoS(in *core.Instance) (*core.Solution, error) {
	if !in.Homogeneous() {
		return nil, errors.New("exact: ClosestHomogeneousQoS requires a homogeneous instance")
	}
	if in.HasBandwidth() {
		return nil, errors.New("exact: ClosestHomogeneousQoS does not support bandwidth constraints")
	}
	return closestPartition(in)
}

// closestPartition is the greedy of ClosestHomogeneousQoS, shared with
// ClosestHomogeneous, on an instance that has passed their checks.
func closestPartition(in *core.Instance) (*core.Solution, error) {
	t := in.Tree
	w := in.W[t.Internal()[0]]
	if in.TotalRequests() == 0 {
		return core.NewSolution(t.Len()), nil
	}
	if w <= 0 {
		return nil, ErrNoSolution
	}

	flow := make([]int64, t.Len()) // uncovered flow leaving each vertex
	repl := make([]bool, t.Len())
	// minSlack[v] is the minimum over pending clients under v of
	// q_i − dist(i, v); unbounded when no pending client has a bound.
	minSlack := make([]int64, t.Len())
	// childSlack is the least slack of the clients v's children still
	// send up, once it has crossed their links to v.
	childSlack := func(v int) int64 {
		slack := unbounded
		for _, c := range t.Children(v) {
			if s := crossLink(in, c, minSlack[c]); flow[c] > 0 && s < slack {
				slack = s
			}
		}
		return slack
	}

	for _, v := range t.PostOrder() {
		if t.IsClient(v) {
			flow[v] = in.R[v]
			if in.R[v] == 0 || in.Q == nil || in.Q[v] == core.NoQoS {
				minSlack[v] = unbounded
			} else {
				minSlack[v] = int64(in.Q[v])
			}
			continue
		}
		var f int64
		for _, c := range t.Children(v) {
			f += flow[c]
		}
		slack := childSlack(v)
		if slack < 0 {
			// Some pending client cannot even be served at v.
			return nil, ErrNoSolution
		}
		// Capacity cuts: promote heaviest internal children while the
		// pending load exceeds W.
		for f > w {
			best := -1
			for _, c := range t.Children(v) {
				if t.IsInternal(c) && !repl[c] && flow[c] > 0 &&
					(best < 0 || flow[c] > flow[best]) {
					best = c
				}
			}
			if best < 0 {
				return nil, ErrNoSolution
			}
			repl[best] = true
			f -= flow[best]
			flow[best] = 0
			slack = childSlack(v) // without best's clients
		}
		// Forced placement: if crossing the link to the parent would
		// strand a client, serve everything here (the root is handled
		// after the sweep).
		if f > 0 && v != t.Root() && crossLink(in, v, slack) < 0 {
			repl[v] = true
			f = 0
			slack = unbounded
		}
		flow[v] = f
		minSlack[v] = slack
	}
	root := t.Root()
	if flow[root] > 0 {
		repl[root] = true
	}
	return assignClosest(in, repl)
}

// unbounded is the slack of a client with no QoS bound.
const unbounded = int64(math.MaxInt64)

// crossLink returns slack once the link v -> parent(v) is crossed: less
// the link's QoS cost (Comm[v], or 1 without link weights), except that
// unbounded stays unbounded, so no path weight strands a client without
// a bound.
func crossLink(in *core.Instance, v int, slack int64) int64 {
	if slack == unbounded {
		return unbounded
	}
	if in.Comm == nil {
		return slack - 1
	}
	return slack - in.Comm[v]
}
