package heuristics

import (
	"repro/internal/core"
	"repro/internal/tree"
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
// and reserves that bandwidth when assigned.
func UBCFBW(in *core.Instance) (*core.Solution, error) { return run(in, ubcfBW) }

func ubcfBW(st *state) error {
	in, t := st.in, st.in.Tree
	copy(st.capLeft, in.W)
	hasBW := in.BW != nil
	if hasBW {
		copy(st.bwLeft, in.BW)
	}
	residual := func(v int) int64 {
		if !hasBW || st.bwLeft[v] == core.NoBandwidth {
			return 1 << 60
		}
		return st.bwLeft[v]
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
		best := -1
		pathOK := residual(c) >= r // the client's own uplink
		for a := t.Parent(c); a != tree.None; a = t.Parent(a) {
			if !pathOK {
				break
			}
			if st.capLeft[a] >= r && in.QoSAllows(c, a) &&
				(best < 0 || st.capLeft[a] < st.capLeft[best]) {
				best = a
			}
			pathOK = residual(a) >= r // link a -> parent(a), for the next hop
		}
		if best < 0 {
			return ErrNoSolution
		}
		st.capLeft[best] -= r
		if hasBW {
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

// CTDABW is CTDA with bandwidth awareness: a node may absorb its subtree
// only if every pending client's demand fits through the links between
// the client and the node.
func CTDABW(in *core.Instance) (*core.Solution, error) { return run(in, ctdaBW) }

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

func ctdaBW(st *state) error {
	in, t := st.in, st.in.Tree
	for {
		added := false
		queue := append(st.queue[:0], t.Root())
		for head := 0; head < len(queue); head++ {
			s := queue[head]
			if st.repl[s] {
				continue
			}
			if in.W[s] >= st.inreq[s] && st.inreq[s] > 0 && st.bwFits(s) {
				st.serveAll(s)
				added = true
				continue
			}
			for _, c := range t.Children(s) {
				if t.IsInternal(c) {
					queue = append(queue, c)
				}
			}
		}
		if !added {
			break
		}
	}
	return st.finish()
}

// AllBW lists the bandwidth-aware variants in registry form.
var AllBW = []Heuristic{
	{"CTDA-BW", "ClosestTopDownAllBandwidth", core.Closest, CTDABW},
	{"UBCF-BW", "UpwardsBigClientFirstBandwidth", core.Upwards, UBCFBW},
	{"MG-BW", "MultipleGreedyBandwidth", core.Multiple, MGBW},
}
