package heuristics

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// TestSteadyStateAllocs pins the scratch-pool contract for every
// heuristic, the QoS and bandwidth variants included (each on a probe
// with its constraint): once the pool is warm, a solve allocates only the
// returned Solution (struct + assignment headers + one portion slab) —
// nothing proportional to the tree size or the pass structure.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	probe := gen.Config{Internal: 100, Clients: 100, Lambda: 0.15, UnitCosts: true}
	in := gen.Instance(probe, 2)
	qos, bw := probe, probe
	qos.QoSRange = 5
	bw.BWFactor = 2
	const limit = 8 // the returned Solution, with headroom for a mid-run GC refilling the pool
	for _, set := range []struct {
		heuristics []Heuristic
		in         *core.Instance
	}{
		{All, in},
		{AllQoS, gen.Instance(qos, 2)},
		{AllBW, gen.Instance(bw, 2)},
	} {
		for _, h := range set.heuristics {
			h, in := h, set.in
			if _, err := h.Run(in); err != nil {
				t.Fatalf("%s does not solve the probe instance: %v", h.Name, err)
			}
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := h.Run(in); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > limit {
				t.Errorf("%s: %.1f allocs/run, want <= %d", h.Name, allocs, limit)
			}
		}
	}
	// MB materializes a Solution per improving candidate; it must still be
	// far below one allocation per vertex.
	if _, err := MB(in); err != nil {
		t.Fatalf("MB: %v", err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := MB(in); err != nil {
			t.Fatal(err)
		}
	})
	if max := float64(8 * 4); allocs > max {
		t.Errorf("MB: %.1f allocs/run, want <= %.0f", allocs, max)
	}
}
