package heuristics

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// zeroCapacityInstance draws a gen instance (20 servers, 40 clients,
// λ = 0.4) whose root and every fourth server have W = S = 0.
func zeroCapacityInstance(seed int64) *core.Instance {
	in := gen.Instance(gen.Config{Internal: 20, Clients: 40, Lambda: 0.4}, seed)
	for i, v := range in.Tree.Internal() {
		if i%4 == 0 || v == in.Tree.Root() {
			in.W[v], in.S[v] = 0, 0
		}
	}
	return in
}

// TestZeroCapacityServersNeverOverloaded: on 300 instances where a
// quarter of the servers, the root among them, have no capacity, every
// heuristic returns a solution that validates under its policy, or
// ErrNoSolution. Such a server also costs 0, so MB keeps any run that
// overloads one: an overload anywhere shows up in MB too.
func TestZeroCapacityServersNeverOverloaded(t *testing.T) {
	hs := append([]Heuristic{{"MB", "MixedBest", core.Multiple, MB}}, All...)
	hs = append(hs, AllQoS...)
	hs = append(hs, AllBW...)
	invalid, solved := map[string]int{}, map[string]int{}
	for seed := int64(1); seed <= 300; seed++ {
		in := zeroCapacityInstance(seed)
		for _, h := range hs {
			sol, err := h.Run(in)
			if errors.Is(err, ErrNoSolution) {
				continue
			}
			if err == nil {
				err = sol.Validate(in, h.Policy)
			}
			if err == nil {
				solved[h.Name]++
				continue
			}
			if invalid[h.Name] == 0 {
				t.Errorf("%s seed %d: %v", h.Name, seed, err)
			}
			invalid[h.Name]++
		}
	}
	for name, n := range invalid {
		t.Errorf("%s: %d invalid solutions of 300", name, n)
	}
	// MB keeps MG's answer at worst, and MG finds a solution whenever one
	// exists: a check that every run passes by failing would show nothing.
	if solved["MB"] == 0 {
		t.Error("MB solved none of the 300 instances")
	}
}
