package heuristics

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
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
			st.deleteMultiple(s, take, false)
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
			st.deleteMultiple(s, take, false)
		}
		if s != t.Root() && in.BW != nil && in.BW[s] != core.NoBandwidth &&
			st.inreq[s] > in.BW[s] {
			return ErrNoSolution
		}
	}
	return st.finish()
}

// TestBottomUpMatchesReference checks MG and CBU, which run the memoized
// bottom-up engine, against the paper-literal sweeps above: the same
// assignment byte for byte, or ErrNoSolution from both. The generated
// instances reuse pooled engines across shapes and sizes, and include
// loads past feasibility (λ = 1.2), clients with zero requests and
// servers with zero capacity; the paper's small figures add capacities
// that exactly fit their subtree.
// MGBW, which is MG's sweep plus a link check, is held to its original
// sweep too.
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
	configs := map[string]gen.Config{
		"batch-local": {Internal: 200, Clients: 400, UnitCosts: true},
		"solve-cold":  {Internal: 300, Clients: 600, Heterogeneous: true},
		"bandwidth":   {Internal: 60, Clients: 120, Heterogeneous: true, BWFactor: 0.6},
	}
	for cname, cfg := range configs {
		for _, lambda := range []float64{0.3, 0.9, 1.2} {
			for seed := int64(1); seed <= 4; seed++ {
				cfg.Lambda = lambda
				in := gen.Instance(cfg, seed)
				if seed%2 == 0 {
					for i, c := range in.Tree.Clients() {
						if i%3 == 0 {
							in.R[c] = 0
						}
					}
				}
				if seed >= 3 {
					for i, v := range in.Tree.Internal() {
						if i%4 == 1 {
							in.W[v] = 0
						}
					}
				}
				instances = append(instances, instance{fmt.Sprintf("%s λ=%.1f seed %d", cname, lambda, seed), in})
			}
		}
	}
	cases := []struct {
		name string
		run  func(*core.Instance) (*core.Solution, error)
		ref  func(*state) error
	}{
		{"MG", MG, refMG},
		{"CBU", CBU, refCBU},
		{"MG-BW", MGBW, refMGBW},
	}
	solved, noSolution := map[string]int{}, map[string]int{}
	for _, inst := range instances {
		for _, tc := range cases {
			label := tc.name + " " + inst.label
			got, err := tc.run(inst.in)
			want, wantErr := run(inst.in, tc.ref)
			if !errors.Is(err, wantErr) {
				t.Fatalf("%s: err %v, reference err %v", label, err, wantErr)
			}
			if wantErr != nil {
				noSolution[tc.name]++
				continue
			}
			if !reflect.DeepEqual(got.Assign, want.Assign) {
				t.Fatalf("%s: assignment differs from the reference\ngot:  %v\nwant: %v", label, got, want)
			}
			solved[tc.name]++
		}
	}
	// λ > 1 exceeds the total capacity, so every case must have seen
	// both outcomes.
	for _, tc := range cases {
		if solved[tc.name] == 0 || noSolution[tc.name] == 0 {
			t.Errorf("%s: %d solved and %d infeasible instances, want some of each",
				tc.name, solved[tc.name], noSolution[tc.name])
		}
	}
}
