package exact

import (
	"errors"

	"repro/internal/core"
	"repro/internal/tree"
)

// ClosestHomogeneous solves Replica Counting optimally under the Closest
// policy on a homogeneous platform (the polynomial case the paper cites
// from Cidon et al. and Liu et al.).
//
// Under Closest, a replica at node s absorbs every request of subtree(s)
// not already absorbed strictly below s, so a placement is exactly a
// partition of the clients into subtree regions of weight at most W. The
// minimum number of regions is found by the classical minimum
// tree-partitioning greedy (Kundu & Misra): walk the tree bottom-up and,
// whenever the uncovered flow entering a node exceeds W, promote the
// internal child carrying the heaviest uncovered flow to a replica,
// repeating until the node's inflow fits. Only internal children can be
// promoted — a region must contain a server — so an instance whose client
// children alone overflow a node is infeasible. This is the greedy of
// ClosestHomogeneousQoS with no QoS bound to force a placement.
//
// Optimality is cross-checked against the brute-force solver in the tests.
func ClosestHomogeneous(in *core.Instance) (*core.Solution, error) {
	if !in.Homogeneous() {
		return nil, errors.New("exact: ClosestHomogeneous requires a homogeneous instance")
	}
	if in.HasQoS() || in.HasBandwidth() {
		return nil, errors.New("exact: ClosestHomogeneous does not support QoS or bandwidth constraints")
	}
	// Link weights only enter slacks, infinite here; dropping them keeps a
	// weighted path from exhausting the greedy's finite stand-in for ∞.
	plain := *in
	plain.Comm = nil
	return closestPartition(&plain)
}

// assignClosest builds the (unique) Closest assignment induced by a replica
// set: every client is served by the first replica on its path to the
// root. It returns ErrNoSolution if some client has no replica above it or
// a server's load exceeds its capacity.
func assignClosest(in *core.Instance, repl []bool) (*core.Solution, error) {
	t := in.Tree
	sol := core.NewSolution(t.Len())
	loads := make([]int64, t.Len())
	for _, c := range t.Clients() {
		if in.R[c] == 0 {
			continue
		}
		server := -1
		for a := t.Parent(c); a != tree.None; a = t.Parent(a) {
			if repl[a] {
				server = a
				break
			}
		}
		if server < 0 {
			return nil, ErrNoSolution
		}
		if !in.QoSAllows(c, server) {
			return nil, ErrNoSolution
		}
		sol.AddPortion(c, server, in.R[c])
		loads[server] += in.R[c]
	}
	for _, j := range t.Internal() {
		if loads[j] > in.W[j] {
			return nil, ErrNoSolution
		}
	}
	if in.HasBandwidth() {
		flows := sol.LinkFlows(in)
		for v := 0; v < t.Len(); v++ {
			if v != t.Root() && in.BW[v] != core.NoBandwidth && flows[v] > in.BW[v] {
				return nil, ErrNoSolution
			}
		}
	}
	// Replicas that serve no client are dropped (they only add cost).
	return sol, nil
}
