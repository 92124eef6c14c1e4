package heuristics

import (
	"repro/internal/core"
)

// This file implements QoS-aware variants of three representative
// heuristics — one per access policy. The paper defers QoS-constrained
// heuristics to future work (Section 10); these variants follow the
// natural design: a server is only eligible for a client within its QoS
// distance, and the Multiple greedy serves requests closest to expiry
// first. On instances without QoS bounds, CTDA-QoS and UBCF-QoS answer
// exactly as CTDA and UBCF; MG-QoS, which orders clients by slack, does
// not always answer as MG.

// CTDAQoS is CTDA with QoS awareness: a node absorbs its subtree only if
// every pending client in it is within QoS range.
func CTDAQoS(in *core.Instance) (*core.Solution, error) {
	return run(in, func(st *state) error { return topDown(st, true, false, false) })
}

// qosCovers reports whether every pending client under s may be served at
// s under the instance's QoS bounds.
func (st *state) qosCovers(s int) bool {
	for _, c := range st.pendingClients(s) {
		if !st.in.QoSAllows(c, s) {
			return false
		}
	}
	return true
}

// UBCFQoS is UBCF restricted to QoS-eligible ancestors.
func UBCFQoS(in *core.Instance) (*core.Solution, error) {
	return run(in, func(st *state) error { return bigClientFirst(st, true, false) })
}

// MGQoS is the Multiple greedy with QoS awareness: every node absorbs
// pending requests up to capacity, serving the clients with the least
// remaining QoS slack first, and the sweep fails as soon as a pending
// client's last eligible server has been passed.
func MGQoS(in *core.Instance) (*core.Solution, error) { return run(in, mgQoS) }

func mgQoS(st *state) error {
	in, t := st.in, st.in.Tree
	for _, s := range t.PostOrder() {
		if t.IsClient(s) {
			continue
		}
		// Eligible pending clients, most urgent (least slack) first.
		cs := st.pendingClients(s)
		eligible := cs[:0]
		for _, c := range cs {
			if in.QoSAllows(c, s) {
				eligible = append(eligible, c)
				st.key[c] = st.slack(c, s)
			}
		}
		sortByKey(eligible, st.key, false, st.tmp)
		budget := in.W[s]
		for _, c := range eligible {
			if budget == 0 {
				break
			}
			take := st.rrem[c]
			if take > budget {
				take = budget
			}
			st.assign(c, s, take)
			budget -= take
		}
		// Expiry check: pending clients whose QoS excludes every ancestor
		// of s can never be served now.
		if s == t.Root() {
			break
		}
		p := t.Parent(s)
		for _, c := range st.pendingClients(s) {
			if !in.QoSAllows(c, p) {
				return ErrNoSolution
			}
		}
	}
	return st.finish()
}

// slack returns the remaining QoS margin of client c when served at s
// (large when the client has no QoS bound).
func (st *state) slack(c, s int) int64 {
	if st.in.Q == nil || st.in.Q[c] == core.NoQoS {
		return 1 << 40
	}
	return int64(st.in.Q[c]) - st.in.Dist(c, s)
}

// AllQoS lists the QoS-aware variants in registry form.
var AllQoS = []Heuristic{
	{"CTDA-QoS", "ClosestTopDownAllQoS", core.Closest, CTDAQoS},
	{"UBCF-QoS", "UpwardsBigClientFirstQoS", core.Upwards, UBCFQoS},
	{"MG-QoS", "MultipleGreedyQoS", core.Multiple, MGQoS},
}
