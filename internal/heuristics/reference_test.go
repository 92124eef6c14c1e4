package heuristics

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/tree"
)

// refMG is MultipleGreedy as the paper states it: one post-order sweep in
// which every node with capacity absorbs min(pending, W) through the
// Multiple delete (Algorithm 10), smallest clients first.
func refMG(st *state) error {
	in, t := st.in, st.in.Tree
	for _, s := range t.PostOrder() {
		if t.IsClient(s) {
			continue
		}
		if st.inreq[s] > 0 && in.W[s] > 0 {
			take := st.inreq[s]
			if take > in.W[s] {
				take = in.W[s]
			}
			st.refDeleteMultiple(s, take, false)
		}
	}
	return st.finish()
}

// refCBU is ClosestBottomUp as the paper states it (Algorithm 5): a
// post-order sweep in which every node able to process its whole pending
// subtree serves all of it.
func refCBU(st *state) error {
	in, t := st.in, st.in.Tree
	for _, s := range t.PostOrder() {
		if t.IsClient(s) {
			continue
		}
		if in.W[s] >= st.inreq[s] && st.inreq[s] > 0 {
			st.serveAll(s)
		}
	}
	return st.finish()
}

// refMGBW is MGBW as first written: refMG's sweep, failing as soon as a
// client's demand or a subtree's overflow exceeds its uplink.
func refMGBW(st *state) error {
	in, t := st.in, st.in.Tree
	for _, s := range t.PostOrder() {
		if t.IsClient(s) {
			if in.BW != nil && in.BW[s] != core.NoBandwidth && st.rrem[s] > in.BW[s] {
				return ErrNoSolution
			}
			continue
		}
		if st.inreq[s] > 0 && in.W[s] > 0 {
			take := st.inreq[s]
			if take > in.W[s] {
				take = in.W[s]
			}
			st.refDeleteMultiple(s, take, false)
		}
		if s != t.Root() && in.BW != nil && in.BW[s] != core.NoBandwidth &&
			st.inreq[s] > in.BW[s] {
			return ErrNoSolution
		}
	}
	return st.finish()
}

// The deleteRequests helpers, UTD and the MTD/MBU two-pass body as they
// were before the Upwards and Multiple deletes became one deleteRequests.

// refSortedByRemaining returns pending clients under s ordered by remaining
// requests (descending if desc, else ascending), ties broken by subtree
// preorder. Same buffer contract as pendingClients.
func (st *state) refSortedByRemaining(s int, desc bool) []int {
	cs := st.pendingClients(s)
	sortByKey(cs, st.rrem, desc, st.tmp)
	return cs
}

// refDeleteSingle is the Upwards deleteRequests (Algorithm 6): remove
// whole clients in non-increasing request order while they fit in budget.
func (st *state) refDeleteSingle(s int, budget int64) {
	for _, c := range st.refSortedByRemaining(s, true) {
		if st.rrem[c] <= budget {
			budget -= st.rrem[c]
			st.assign(c, s, st.rrem[c])
			if budget == 0 {
				return
			}
		}
	}
}

// refDeleteMultiple is the Multiple delete (Algorithm 10, with the
// obvious typo fixed: the partial deletion subtracts the deleted amount,
// not the client's residue): whole clients while they fit, then one
// partial from the next client in order. desc selects the MTD ordering
// (non-increasing); MBU uses non-decreasing.
func (st *state) refDeleteMultiple(s int, budget int64, desc bool) {
	for _, c := range st.refSortedByRemaining(s, desc) {
		if st.rrem[c] <= budget {
			budget -= st.rrem[c]
			st.assign(c, s, st.rrem[c])
			if budget == 0 {
				return
			}
		} else {
			st.assign(c, s, budget)
			return
		}
	}
}

// refUTD is UTD over refDeleteSingle.
func refUTD(st *state) error {
	in, t := st.in, st.in.Tree

	// First pass, depth-first from the root (= preorder over internals).
	for _, s := range t.PreOrder() {
		if t.IsClient(s) {
			continue
		}
		if st.inreq[s] >= in.W[s] && st.inreq[s] > 0 {
			st.repl[s] = true
			st.refDeleteSingle(s, in.W[s])
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
			st.refDeleteSingle(s, st.inreq[s])
		}
	}
	return st.finish()
}

// refMultipleTwoPass is MTD (topDown, desc) and MBU over refDeleteMultiple.
func refMultipleTwoPass(st *state, topDown, desc bool) error {
	in, t := st.in, st.in.Tree

	// First pass: saturate exhausted nodes.
	order := t.PreOrder()
	if !topDown {
		order = t.PostOrder()
	}
	for _, s := range order {
		if t.IsClient(s) {
			continue
		}
		if st.inreq[s] >= in.W[s] && st.inreq[s] > 0 && in.W[s] > 0 {
			st.repl[s] = true
			st.refDeleteMultiple(s, in.W[s], desc)
		}
	}

	// Second pass: top-down, the first non-replica node of a branch with
	// pending requests absorbs all of them (its capacity suffices since it
	// was not exhausted during the first pass and pending only shrinks).
	// Absorbing zeroes every descendant's inreq, so the preorder scan is
	// the recursive descent of Algorithm 8.
	if st.inreq[t.Root()] > 0 {
		for _, s := range t.PreOrder() {
			if t.IsClient(s) || st.repl[s] || st.inreq[s] == 0 {
				continue
			}
			st.repl[s] = true
			st.refDeleteMultiple(s, st.inreq[s], desc)
		}
	}
	return st.finish()
}

// refCTDA is CTDA as first written, before the Closest top-down family
// became one topDown body.
func refCTDA(st *state) error {
	in, t := st.in, st.in.Tree
	for {
		added := false
		queue := append(st.queue[:0], t.Root())
		for head := 0; head < len(queue); head++ {
			s := queue[head]
			if st.repl[s] {
				continue
			}
			if in.W[s] >= st.inreq[s] && st.inreq[s] > 0 {
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

// refCTDLF is CTDLF as first written.
func refCTDLF(st *state) error {
	in, t := st.in, st.in.Tree
	for {
		added := false
		queue := append(st.queue[:0], t.Root())
		for head := 0; head < len(queue) && !added; head++ {
			s := queue[head]
			if st.repl[s] {
				continue
			}
			if in.W[s] >= st.inreq[s] && st.inreq[s] > 0 {
				st.serveAll(s)
				added = true
				continue
			}
			k := len(queue)
			for _, c := range t.Children(s) {
				if t.IsInternal(c) {
					queue = append(queue, c)
				}
			}
			sortByKey(queue[k:], st.inreq, true, st.tmp)
		}
		if !added {
			break
		}
	}
	return st.finish()
}

// refUBCF is UBCF as first written, before the UBCF family became one
// bigClientFirst body.
func refUBCF(st *state) error {
	in, t := st.in, st.in.Tree
	copy(st.capLeft, in.W)
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
		for a := t.Parent(c); a != tree.None; a = t.Parent(a) {
			if st.capLeft[a] >= r && (best < 0 || st.capLeft[a] < st.capLeft[best]) {
				best = a
			}
		}
		if best < 0 {
			return ErrNoSolution
		}
		st.capLeft[best] -= r
		st.assign(c, best, r)
	}
	return nil
}

// refCTDAQoS is CTDA-QoS as first written.
func refCTDAQoS(st *state) error {
	in, t := st.in, st.in.Tree
	for {
		added := false
		queue := append(st.queue[:0], t.Root())
		for head := 0; head < len(queue); head++ {
			s := queue[head]
			if st.repl[s] {
				continue
			}
			if in.W[s] >= st.inreq[s] && st.inreq[s] > 0 && st.qosCovers(s) {
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

// refUBCFQoS is UBCF-QoS as first written: it recomputes Dist from the
// client at every ancestor.
func refUBCFQoS(st *state) error {
	in, t := st.in, st.in.Tree
	copy(st.capLeft, in.W)
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
		for a := t.Parent(c); a != tree.None; a = t.Parent(a) {
			if !in.QoSAllows(c, a) {
				break // ancestors only get farther
			}
			if st.capLeft[a] >= r && (best < 0 || st.capLeft[a] < st.capLeft[best]) {
				best = a
			}
		}
		if best < 0 {
			return ErrNoSolution
		}
		st.capLeft[best] -= r
		st.assign(c, best, r)
	}
	return nil
}

// refCTDABW is CTDA-BW as first written.
func refCTDABW(st *state) error {
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

// refUBCFBW is UBCF-BW as first written; it skips QoS-ineligible
// ancestors rather than stopping at the first one.
func refUBCFBW(st *state) error {
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

func refMTD(st *state) error { return refMultipleTwoPass(st, true, true) }

func refMBU(st *state) error { return refMultipleTwoPass(st, false, false) }

// refMB is MB over the reference bodies: the cheapest solution among the
// eight heuristics, the first one on ties.
func refMB(in *core.Instance) (*core.Solution, error) {
	var best *core.Solution
	for _, f := range []func(*state) error{refCTDA, refCTDLF, refCBU, refUTD, refUBCF, refMTD, refMBU, refMG} {
		sol, err := run(in, f)
		if err == nil && (best == nil || sol.StorageCost(in) < best.StorageCost(in)) {
			best = sol
		}
	}
	if best == nil {
		return nil, ErrNoSolution
	}
	return best, nil
}

// onState lifts a state-level body to a heuristic.
func onState(f func(*state) error) Func {
	return func(in *core.Instance) (*core.Solution, error) { return run(in, f) }
}

// referenceCases pairs every registered heuristic that has a reference
// body with that reference.
var referenceCases = []struct {
	name     string
	run, ref Func
}{
	{"MG", MG, onState(refMG)},
	{"CBU", CBU, onState(refCBU)},
	{"MG-BW", MGBW, onState(refMGBW)},
	{"CTDA", CTDA, onState(refCTDA)},
	{"CTDLF", CTDLF, onState(refCTDLF)},
	{"UBCF", UBCF, onState(refUBCF)},
	{"UTD", UTD, onState(refUTD)},
	{"MTD", MTD, onState(refMTD)},
	{"MBU", MBU, onState(refMBU)},
	{"CTDA-QoS", CTDAQoS, onState(refCTDAQoS)},
	{"UBCF-QoS", UBCFQoS, onState(refUBCFQoS)},
	{"CTDA-BW", CTDABW, onState(refCTDABW)},
	{"UBCF-BW", UBCFBW, onState(refUBCFBW)},
	{"MB", MB, refMB},
}

// referenceConfigs are the generated shapes the folded bodies are held
// to: the plain batch-local and solve-cold configs, and QoS-only,
// bandwidth-only and QoS-plus-bandwidth ones.
var referenceConfigs = map[string]gen.Config{
	"batch-local": {Internal: 200, Clients: 400, UnitCosts: true},
	"solve-cold":  {Internal: 300, Clients: 600, Heterogeneous: true},
	"bandwidth":   {Internal: 60, Clients: 120, Heterogeneous: true, BWFactor: 0.6},
	"qos":         {Internal: 60, Clients: 120, QoSRange: 5},
	"qos+bw":      {Internal: 60, Clients: 120, Heterogeneous: true, QoSRange: 5, BWFactor: 0.8},
}

// variantInstance draws a gen instance and, depending on the seed, gives
// a third of the clients zero requests (even seeds), a quarter of the
// servers zero capacity (seeds 3 and 0 mod 4), and, on QoS instances,
// weighted links of cost 0 or 1 (odd seeds).
func variantInstance(cfg gen.Config, seed int64) *core.Instance {
	in := gen.Instance(cfg, seed)
	if seed%2 == 0 {
		for i, c := range in.Tree.Clients() {
			if i%3 == 0 {
				in.R[c] = 0
			}
		}
	}
	if m := uint64(seed) % 4; m == 0 || m == 3 {
		for i, v := range in.Tree.Internal() {
			if i%4 == 1 {
				in.W[v] = 0
			}
		}
	}
	if in.Q != nil && seed%2 != 0 {
		in.Comm = make([]int64, in.Tree.Len())
		for v := range in.Comm {
			if in.Tree.Parent(v) != tree.None {
				in.Comm[v] = int64(v % 2)
			}
		}
	}
	return in
}

// matchesReference runs a heuristic and its reference on in and fails t
// unless both return ErrNoSolution or both return the same assignment
// byte for byte. It reports whether a solution was found.
func matchesReference(t testing.TB, label string, in *core.Instance, run, ref Func) bool {
	t.Helper()
	got, err := run(in)
	want, wantErr := ref(in)
	if !errors.Is(err, wantErr) {
		t.Fatalf("%s: err %v, reference err %v", label, err, wantErr)
	}
	if wantErr != nil {
		return false
	}
	if !reflect.DeepEqual(got.Assign, want.Assign) {
		t.Fatalf("%s: assignment differs from the reference\ngot:  %v\nwant: %v", label, got, want)
	}
	return true
}

// TestBottomUpMatchesReference checks every heuristic with a reference
// body against it: the same assignment byte for byte, or ErrNoSolution
// from both. MG and CBU run the memoized bottom-up engine and are held to
// the paper-literal sweeps; MGBW, MG's sweep plus a link check, to its
// original sweep; the Closest top-down and UBCF variants, one body per
// family, to their per-variant copies; UTD, MTD and MBU, whose Upwards
// and Multiple deletes are one deleteRequests, to their bodies over the
// two former deletes; MB to MB over the references.
// The generated instances reuse pooled state across shapes and sizes,
// and include loads past feasibility (λ = 1.2), clients with zero
// requests, servers with zero capacity and weighted QoS links; the
// paper's small figures add capacities that exactly fit their subtree.
func TestBottomUpMatchesReference(t *testing.T) {
	type instance struct {
		label string
		in    *core.Instance
	}
	instances := []instance{
		{"figure 1a", core.Figure1('a')},
		{"figure 1b", core.Figure1('b')},
		{"figure 1c", core.Figure1('c')},
		{"figure 2", core.Figure2(3)},
		{"figure 3", core.Figure3(3)},
	}
	for cname, cfg := range referenceConfigs {
		for _, lambda := range []float64{0.3, 0.9, 1.2} {
			for seed := int64(1); seed <= 4; seed++ {
				cfg.Lambda = lambda
				instances = append(instances, instance{
					fmt.Sprintf("%s λ=%.1f seed %d", cname, lambda, seed), variantInstance(cfg, seed)})
			}
		}
	}
	solved, noSolution := map[string]int{}, map[string]int{}
	for _, inst := range instances {
		for _, tc := range referenceCases {
			if matchesReference(t, tc.name+" "+inst.label, inst.in, tc.run, tc.ref) {
				solved[tc.name]++
			} else {
				noSolution[tc.name]++
			}
		}
	}
	// λ > 1 exceeds the total capacity, so every case must have seen
	// both outcomes.
	for _, tc := range referenceCases {
		if solved[tc.name] == 0 || noSolution[tc.name] == 0 {
			t.Errorf("%s: %d solved and %d infeasible instances, want some of each",
				tc.name, solved[tc.name], noSolution[tc.name])
		}
	}
}

// FuzzVariantsMatchReference is TestBottomUpMatchesReference's check on
// arbitrary gen configs: up to 400 internal nodes and 800 clients, λ in
// [0, 2), QoS ranges up to 7 and bandwidth factors in [0, 2); odd seeds
// draw heterogeneous capacities. The seed corpus is the test's configs.
func FuzzVariantsMatchReference(f *testing.F) {
	for _, cfg := range referenceConfigs {
		for _, lambda := range []float64{0.3, 0.9, 1.2} {
			f.Add(int64(1), cfg.Internal, cfg.Clients, lambda, cfg.QoSRange, cfg.BWFactor)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, internal, clients int, lambda float64, qosRange int, bwFactor float64) {
		unit := func(x float64) float64 { // into [0, 2)
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0
			}
			return math.Mod(math.Abs(x), 2)
		}
		cfg := gen.Config{
			Internal:      1 + int(uint(internal)%400),
			Clients:       1 + int(uint(clients)%800),
			Lambda:        unit(lambda),
			Heterogeneous: seed%2 != 0,
			QoSRange:      int(uint(qosRange) % 8),
			BWFactor:      unit(bwFactor),
		}
		in := variantInstance(cfg, seed)
		for _, tc := range referenceCases {
			matchesReference(t, fmt.Sprintf("%s %+v seed %d", tc.name, cfg, seed), in, tc.run, tc.ref)
		}
	})
}
