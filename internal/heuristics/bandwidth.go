package heuristics

import (
	"repro/internal/core"
)

// This file implements bandwidth-aware variants of one heuristic per
// policy — the paper's second future-work axis ("including bandwidth
// constraints may require a better global load-balancing along the tree,
// thereby favoring Multiple over Upwards", Section 10). Each variant
// treats per-link capacities as hard limits while routing requests
// upward.

// MGBW is the Multiple greedy with bandwidth awareness. Because the base
// greedy already absorbs as many requests as possible at every node, the
// traffic it sends across each link is the minimum over all assignments;
// MGBW therefore decides feasibility of Multiple + bandwidth exactly: it
// fails only when the pending overflow of some subtree exceeds the link
// capacity in every solution. It is MG's sweep, then a check of every
// uplink against what the sweep sent across it.
func MGBW(in *core.Instance) (*core.Solution, error) { return run(in, mgBW) }

func mgBW(st *state) error {
	if err := st.sweep(true); err != nil || st.in.BW == nil {
		return err
	}
	in, t := st.in, st.in.Tree
	for v, bw := range in.BW {
		// A client's full demand crosses its uplink, and so does whatever
		// escapes an internal vertex's subtree.
		up := in.R[v]
		if t.IsInternal(v) {
			up = st.sweeper.escaping(v)
		}
		if v != t.Root() && bw != core.NoBandwidth && up > bw {
			return ErrNoSolution
		}
	}
	return nil
}

// UBCFBW is UBCF with bandwidth awareness: a client only considers
// ancestors reachable without exhausting any link's residual bandwidth,
// and reserves that bandwidth when assigned. It also honours QoS: an
// ancestor beyond the client's QoS bound is not eligible, as in UBCFQoS.
func UBCFBW(in *core.Instance) (*core.Solution, error) {
	return run(in, func(st *state) error { return bigClientFirst(st, true, true) })
}

// residual returns the bandwidth still free on the link v -> parent(v),
// 1<<60 when the link is uncapped.
func (st *state) residual(v int) int64 {
	if st.in.BW == nil || st.bwLeft[v] == core.NoBandwidth {
		return 1 << 60
	}
	return st.bwLeft[v]
}

// CTDABW is CTDA with bandwidth awareness: a node may absorb its subtree
// only if every pending client's demand fits through the links between
// the client and the node.
func CTDABW(in *core.Instance) (*core.Solution, error) {
	return run(in, func(st *state) error { return topDown(st, false, true, false) })
}

// bwFits reports whether node s can absorb its whole pending subtree
// without overflowing a link. Under Closest, the flow on a link
// u -> parent(u) inside subtree(s) is the whole pending demand below u;
// the subtree is walked as its preorder interval, skipping nothing (links
// under a zero-pending vertex carry zero and pass trivially).
func (st *state) bwFits(s int) bool {
	in, t := st.in, st.in.Tree
	if in.BW == nil {
		return true
	}
	for _, v := range t.Subtree(s) {
		if v == s {
			continue
		}
		below := st.inreq[v]
		if t.IsClient(v) {
			below = st.rrem[v]
		}
		if below > 0 && in.BW[v] != core.NoBandwidth && below > in.BW[v] {
			return false
		}
	}
	return true
}

// AllBW lists the bandwidth-aware variants in registry form.
var AllBW = []Heuristic{
	{"CTDA-BW", "ClosestTopDownAllBandwidth", core.Closest, CTDABW},
	{"UBCF-BW", "UpwardsBigClientFirstBandwidth", core.Upwards, UBCFBW},
	{"MG-BW", "MultipleGreedyBandwidth", core.Multiple, MGBW},
}
