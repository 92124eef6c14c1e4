package heuristics

import (
	"repro/internal/core"
)

// MTD is MultipleTopDown: the UTD pass structure with the Multiple delete
// procedure (Algorithm 10), which may split one client between servers so
// that every first-pass replica is fully saturated.
func MTD(in *core.Instance) (*core.Solution, error) { return run(in, mtd) }

func mtd(st *state) error { return multipleTwoPass(st, true, true) }

// MBU is MultipleBottomUp (Algorithms 11-12): the first pass walks the
// tree bottom-up and saturates every node whose pending subtree requests
// exhaust its capacity, deleting small clients first; the second pass is
// top-down as in MTD.
func MBU(in *core.Instance) (*core.Solution, error) { return run(in, mbu) }

func mbu(st *state) error { return multipleTwoPass(st, false, false) }

// multipleTwoPass factors MTD and MBU: preorder selects the first-pass
// orientation and desc the delete order (non-increasing for MTD,
// non-decreasing for MBU).
func multipleTwoPass(st *state, preorder, desc bool) error {
	in, t := st.in, st.in.Tree

	// First pass: saturate exhausted nodes.
	order := t.PreOrder()
	if !preorder {
		order = t.PostOrder()
	}
	for _, s := range order {
		if t.IsClient(s) {
			continue
		}
		if st.inreq[s] >= in.W[s] && st.inreq[s] > 0 && in.W[s] > 0 {
			st.repl[s] = true
			st.deleteRequests(s, in.W[s], desc, true)
		}
	}

	// Second pass: top-down, the first non-replica node of a branch with
	// pending requests absorbs all of them (its capacity suffices since it
	// was not exhausted during the first pass and pending only shrinks).
	// Absorbing zeroes every descendant's inreq, so the preorder scan is
	// the recursive descent of Algorithm 8. A server with W = 0 can absorb
	// nothing, so the scan passes it by; requests left with no server
	// above them fail the run in finish.
	if st.inreq[t.Root()] > 0 {
		for _, s := range t.PreOrder() {
			if t.IsClient(s) || st.repl[s] || st.inreq[s] == 0 || in.W[s] == 0 {
				continue
			}
			st.repl[s] = true
			st.deleteRequests(s, st.inreq[s], desc, true)
		}
	}
	return st.finish()
}

// MG is MultipleGreedy: a single bottom-up sweep in which every node
// absorbs as many pending requests as its capacity allows (like pass 3 of
// the optimal Section 4.1 algorithm with all nodes eligible). On
// heterogeneous platforms its cost can be far from optimal, but it finds a
// solution whenever one exists under the Multiple policy.
func MG(in *core.Instance) (*core.Solution, error) { return run(in, mg) }

func mg(st *state) error { return st.sweep(true) }

// MB is MixedBest: run all eight heuristics and keep the cheapest valid
// solution. Because any Closest or Upwards solution is also a Multiple
// solution, MB is a Multiple-policy heuristic; like MG it always finds a
// solution when one exists. It reuses one pooled state across the eight
// runs and materializes a Solution only when a run improves on the best
// cost so far.
func MB(in *core.Instance) (*core.Solution, error) {
	st := newState(in)
	defer st.release()
	var best *core.Solution
	var bestCost int64
	for i, f := range allFuncs {
		if i > 0 {
			st.reset(in)
		}
		if f(st) != nil {
			continue
		}
		if c := st.cost(); best == nil || c < bestCost {
			best, bestCost = st.materialize(), c
		}
	}
	if best == nil {
		return nil, ErrNoSolution
	}
	return best, nil
}
