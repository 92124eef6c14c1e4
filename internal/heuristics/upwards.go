package heuristics

import (
	"repro/internal/core"
	"repro/internal/tree"
)

// UTD is UpwardsTopDown (Algorithms 7-8): a first depth-first pass makes a
// replica of every node whose pending subtree requests exhaust its
// capacity, deleting whole clients (largest first) up to that capacity; a
// second pass adds non-exhausted servers that absorb everything still
// pending below them.
func UTD(in *core.Instance) (*core.Solution, error) { return run(in, utd) }

func utd(st *state) error {
	in, t := st.in, st.in.Tree

	// First pass, depth-first from the root (= preorder over internals).
	for _, s := range t.PreOrder() {
		if t.IsClient(s) {
			continue
		}
		if st.inreq[s] >= in.W[s] && st.inreq[s] > 0 {
			st.repl[s] = true
			st.deleteRequests(s, in.W[s], true, false)
		}
	}

	// Second pass: the first non-replica node of each branch with pending
	// requests takes all of them (its capacity suffices: see Section 6.2).
	// Once a node absorbs its subtree, every descendant's inreq is zero,
	// so the preorder scan is the recursive descent of Algorithm 8.
	if st.inreq[t.Root()] > 0 {
		for _, s := range t.PreOrder() {
			if t.IsClient(s) || st.repl[s] || st.inreq[s] == 0 {
				continue
			}
			st.repl[s] = true
			st.deleteRequests(s, st.inreq[s], true, false)
		}
	}
	return st.finish()
}

// UBCF is UpwardsBigClientFirst (Algorithm 9): clients in non-increasing
// request order each pick, among the ancestors whose remaining capacity
// fits all their requests, the one with minimal remaining capacity.
func UBCF(in *core.Instance) (*core.Solution, error) { return run(in, ubcf) }

func ubcf(st *state) error { return bigClientFirst(st, false, false) }

// bigClientFirst is the UBCF body. With qos, a client's scan up its path
// stops past its QoS bound (Dist only grows toward the root; the distance
// is carried up, not recomputed). With bw, it stops at the first link that
// cannot carry the client, and the chosen path's bandwidth is reserved.
func bigClientFirst(st *state, qos, bw bool) error {
	in, t := st.in, st.in.Tree
	copy(st.capLeft, in.W)
	if bw && in.BW != nil {
		copy(st.bwLeft, in.BW)
	}
	order := st.order[:0]
	for _, c := range t.Clients() {
		if in.R[c] > 0 {
			order = append(order, c)
		}
	}
	sortByKey(order, in.R, true, st.tmp)
	for _, c := range order {
		r := in.R[c]
		bounded := qos && in.Q != nil && in.Q[c] != core.NoQoS
		var dist int64
		best := -1
		for below, a := c, t.Parent(c); a != tree.None; below, a = a, t.Parent(a) {
			if bw && st.residual(below) < r {
				break
			}
			if bounded {
				if in.Comm == nil {
					dist++
				} else {
					dist += in.Comm[below]
				}
				if dist > int64(in.Q[c]) {
					break
				}
			}
			if st.capLeft[a] >= r && (best < 0 || st.capLeft[a] < st.capLeft[best]) {
				best = a
			}
		}
		if best < 0 {
			return ErrNoSolution
		}
		st.capLeft[best] -= r
		if bw && in.BW != nil {
			for u := c; u != best; u = t.Parent(u) {
				if st.bwLeft[u] != core.NoBandwidth {
					st.bwLeft[u] -= r
				}
			}
		}
		st.assign(c, best, r)
	}
	return nil
}
