package session

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// TestSessionApplyDeltaAllocs pins the allocations of one set_rate delta
// through an mg session (the BenchmarkSessionApplyDelta loop): a small
// constant — the undo log, the dirty-vertex order, the watch channel and
// the result — that must not grow with the tree. The memoized engine
// itself allocates nothing once its per-vertex lists have settled.
func TestSessionApplyDeltaAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	const limit = 8 // 6 measured, with headroom for replica churn in the diff
	var perSize []float64
	for _, leaves := range []int{1_000, 100_000} {
		in := gen.Instance(gen.Config{Internal: leaves / 4, Clients: leaves, Lambda: 0.4}, 7)
		m := newTestManager(t, Options{})
		s, err := m.Create(context.Background(), in, "mg", core.Multiple)
		if err != nil {
			t.Fatal(err)
		}
		clients := in.Tree.Clients()
		i := 0
		allocs := testing.AllocsPerRun(500, func() {
			i++
			op := Op{Op: OpSetRate, Vertex: clients[i%len(clients)], Value: int64(i%47 + 1)}
			res, err := s.Apply(context.Background(), []Op{op})
			if err != nil {
				t.Fatal(err)
			}
			if res.Mode != "incremental" {
				t.Fatalf("delta took mode %q, want incremental", res.Mode)
			}
		})
		if allocs > limit {
			t.Errorf("%d leaves: %.1f allocs per delta, want <= %d", leaves, allocs, limit)
		}
		perSize = append(perSize, allocs)
	}
	if perSize[1] > perSize[0]+1 {
		t.Errorf("allocs per delta grow with the tree: %.1f at 1e3 leaves, %.1f at 1e5", perSize[0], perSize[1])
	}
}
