// Benchmarks regenerating every table and figure of the paper's
// evaluation; the experiment index is this list:
//
//	Table 1    -> BenchmarkTable1_*          (complexity: polynomial vs exponential)
//	Figures 1-5 -> BenchmarkFig0*_*          (Section 3 gap instances)
//	Figure 6   -> BenchmarkFig06_WorkedExample
//	Figures 7-8 -> BenchmarkFig07/08_*       (NP-hardness gadgets)
//	Figures 9-12 -> BenchmarkFig09..12_*     (Section 7 campaign slices)
//
// Quality metrics (success rates, relative costs) are attached to the
// campaign benchmarks via ReportMetric so the paper's series can be read
// straight from `go test -bench`.
package replica_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	replica "repro"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/heuristics"
	"repro/internal/lpbound"
	"repro/internal/optimize"
	"repro/internal/reduction"
	"repro/internal/service"
)

// --- Table 1: complexity of the six problem variants ---

// BenchmarkTable1_MultipleHomogeneous measures the polynomial optimal
// algorithm (Theorem 1) across sizes; time should grow polynomially and
// the reported allocations are exactly the returned Solution (the solver
// scratch is pooled).
func BenchmarkTable1_MultipleHomogeneous(b *testing.B) {
	for _, size := range []int{50, 200, 800} {
		in := gen.Instance(gen.Config{Internal: size, Clients: 2 * size, Lambda: 0.5, UnitCosts: true}, 42)
		b.Run(sizeName(size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := exact.MultipleHomogeneous(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable1_ClosestHomogeneous measures the polynomial Closest
// solver across sizes.
func BenchmarkTable1_ClosestHomogeneous(b *testing.B) {
	for _, size := range []int{50, 200, 800} {
		in := gen.Instance(gen.Config{Internal: size, Clients: 2 * size, Lambda: 0.3, UnitCosts: true}, 42)
		b.Run(sizeName(size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exact.ClosestHomogeneous(in); err != nil && err != exact.ErrNoSolution {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable1_UpwardsExponential shows the NP-hard cell: brute force
// over the Upwards policy doubles per extra node.
func BenchmarkTable1_UpwardsExponential(b *testing.B) {
	for _, size := range []int{8, 10, 12} {
		in := gen.Instance(gen.Config{Internal: size, Clients: size, Lambda: 0.5, UnitCosts: true}, 7)
		b.Run(sizeName(size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _ = exact.BruteForce(context.Background(), in, core.Upwards)
			}
		})
	}
}

// --- Figures 1-5: the Section 3 gap constructions ---

// BenchmarkFig02_UpwardsVsClosest regenerates the Figure 2 gap: the
// Upwards/Closest replica ratio is reported as a metric (paper: 3 vs n+2).
func BenchmarkFig02_UpwardsVsClosest(b *testing.B) {
	const n = 3
	in := core.Figure2(n)
	var up, cl int
	for i := 0; i < b.N; i++ {
		u, err := exact.BruteForce(context.Background(), in, core.Upwards)
		if err != nil {
			b.Fatal(err)
		}
		c, err := exact.ClosestHomogeneous(in)
		if err != nil {
			b.Fatal(err)
		}
		up, cl = u.ReplicaCount(), c.ReplicaCount()
	}
	b.ReportMetric(float64(up), "upwards_replicas")
	b.ReportMetric(float64(cl), "closest_replicas")
}

// BenchmarkFig03_MultipleVsUpwards regenerates the Figure 3 factor-2 gap.
func BenchmarkFig03_MultipleVsUpwards(b *testing.B) {
	const n = 3
	in := core.Figure3(n)
	var mu, up int
	for i := 0; i < b.N; i++ {
		m, err := exact.MultipleHomogeneous(in)
		if err != nil {
			b.Fatal(err)
		}
		u, err := exact.BruteForce(context.Background(), in, core.Upwards)
		if err != nil {
			b.Fatal(err)
		}
		mu, up = m.ReplicaCount(), u.ReplicaCount()
	}
	b.ReportMetric(float64(mu), "multiple_replicas")
	b.ReportMetric(float64(up), "upwards_replicas")
}

// BenchmarkFig04_HeterogeneousGap regenerates the Figure 4 unbounded gap.
func BenchmarkFig04_HeterogeneousGap(b *testing.B) {
	in := core.Figure4(5, 20)
	var mu, up int64
	for i := 0; i < b.N; i++ {
		m, err := exact.BruteForce(context.Background(), in, core.Multiple)
		if err != nil {
			b.Fatal(err)
		}
		u, err := exact.BruteForce(context.Background(), in, core.Upwards)
		if err != nil {
			b.Fatal(err)
		}
		mu, up = m.StorageCost(in), u.StorageCost(in)
	}
	b.ReportMetric(float64(up)/float64(mu), "cost_ratio")
}

// BenchmarkFig05_TrivialBoundGap regenerates the Figure 5 gap between the
// optimum and ⌈Σr/W⌉.
func BenchmarkFig05_TrivialBoundGap(b *testing.B) {
	in := core.Figure5(4, 8)
	var opt int
	for i := 0; i < b.N; i++ {
		m, err := exact.MultipleHomogeneous(in)
		if err != nil {
			b.Fatal(err)
		}
		opt = m.ReplicaCount()
	}
	b.ReportMetric(float64(opt)/float64(in.TrivialLowerBound()), "optimum_over_bound")
}

// BenchmarkFig06_WorkedExample runs the three-pass optimal algorithm on
// the Figure 6 network.
func BenchmarkFig06_WorkedExample(b *testing.B) {
	in, _ := core.Figure6()
	for i := 0; i < b.N; i++ {
		if _, err := exact.MultipleHomogeneous(in); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures 7-8: NP-hardness gadget construction + solving ---

func BenchmarkFig07_ThreePartitionGadget(b *testing.B) {
	p, err := reduction.NewThreePartition([]int64{10, 11, 12, 10, 10, 13, 9, 11, 13})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		g := reduction.BuildUpwards(p)
		if _, err := exact.BruteForce(context.Background(), g.Instance, core.Upwards); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig08_TwoPartitionGadget(b *testing.B) {
	p, err := reduction.NewTwoPartition([]int64{3, 1, 1, 2, 2, 1})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		g := reduction.BuildCost(p)
		if _, err := exact.BruteForce(context.Background(), g.Instance, core.Multiple); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures 9-12: the Section 7 campaign ---

// campaignSlice runs a reduced campaign (3 λ values, few trees) and
// reports the figure's headline series as metrics. The full-size series
// are regenerated by cmd/rpexp.
func campaignSlice(b *testing.B, hetero bool) *experiments.Results {
	b.Helper()
	var res *experiments.Results
	for i := 0; i < b.N; i++ {
		r, err := experiments.Run(experiments.Config{
			Heterogeneous:  hetero,
			Lambdas:        []float64{0.2, 0.5, 0.8},
			TreesPerLambda: 5,
			MinSize:        15,
			MaxSize:        45,
			Seed:           11,
			BoundNodes:     25,
		})
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	return res
}

func BenchmarkFig09_HomogeneousSuccess(b *testing.B) {
	res := campaignSlice(b, false)
	for _, row := range res.Rows {
		suffix := lambdaName(row.Lambda)
		b.ReportMetric(float64(row.Success["MG"])/float64(row.Trees), "success_MG_"+suffix)
		b.ReportMetric(float64(row.Success["CTDA"])/float64(row.Trees), "success_CTDA_"+suffix)
	}
}

func BenchmarkFig10_HomogeneousRelativeCost(b *testing.B) {
	res := campaignSlice(b, false)
	for _, row := range res.Rows {
		b.ReportMetric(row.RelCost["MB"], "rcost_MB_"+lambdaName(row.Lambda))
	}
}

func BenchmarkFig11_HeterogeneousSuccess(b *testing.B) {
	res := campaignSlice(b, true)
	for _, row := range res.Rows {
		suffix := lambdaName(row.Lambda)
		b.ReportMetric(float64(row.Success["MG"])/float64(row.Trees), "success_MG_"+suffix)
		b.ReportMetric(float64(row.Success["CTDA"])/float64(row.Trees), "success_CTDA_"+suffix)
	}
}

func BenchmarkFig12_HeterogeneousRelativeCost(b *testing.B) {
	res := campaignSlice(b, true)
	for _, row := range res.Rows {
		b.ReportMetric(row.RelCost["MB"], "rcost_MB_"+lambdaName(row.Lambda))
	}
}

// --- Heuristic micro-benchmarks (Section 6 complexity: O(s²)) ---

func BenchmarkHeuristics(b *testing.B) {
	in := gen.Instance(gen.Config{Internal: 100, Clients: 200, Lambda: 0.4, Heterogeneous: true}, 5)
	for _, h := range heuristics.All {
		h := h
		b.Run(h.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _ = h.Run(in)
			}
		})
	}
	b.Run("MB", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = heuristics.MB(in)
		}
	})
}

// --- Lower-bound machinery ---

func BenchmarkLPBound_Rational(b *testing.B) {
	in := gen.Instance(gen.Config{Internal: 20, Clients: 40, Lambda: 0.5}, 3)
	for i := 0; i < b.N; i++ {
		if _, err := lpbound.Rational(in, core.Multiple); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLPBound_Refined(b *testing.B) {
	in := gen.Instance(gen.Config{Internal: 20, Clients: 40, Lambda: 0.5}, 3)
	var seedCost float64
	if sol, err := heuristics.MB(in); err == nil {
		seedCost = float64(sol.StorageCost(in))
	}
	for i := 0; i < b.N; i++ {
		if _, err := lpbound.Refined(context.Background(), in, core.Multiple,
			lpbound.Options{MaxNodes: 50, Incumbent: seedCost}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (each benchmark's doc comment states what it isolates) ---

// BenchmarkAblation_DeleteOrder contrasts MTD (largest-client-first
// deletion) with MBU (smallest-first): success over a batch is reported
// as a metric, isolating the effect of the delete order + traversal.
func BenchmarkAblation_DeleteOrder(b *testing.B) {
	insts := gen.Batch(gen.Config{Internal: 20, Clients: 40, Lambda: 0.45}, 9, 20)
	var mtd, mbu int
	for i := 0; i < b.N; i++ {
		mtd, mbu = 0, 0
		for _, in := range insts {
			if _, err := heuristics.MTD(in); err == nil {
				mtd++
			}
			if _, err := heuristics.MBU(in); err == nil {
				mbu++
			}
		}
	}
	b.ReportMetric(float64(mtd)/float64(len(insts)), "success_MTD")
	b.ReportMetric(float64(mbu)/float64(len(insts)), "success_MBU")
}

// BenchmarkAblation_IncumbentSeeding shows the effect of seeding the
// branch-and-bound with a heuristic incumbent.
func BenchmarkAblation_IncumbentSeeding(b *testing.B) {
	in := gen.Instance(gen.Config{Internal: 15, Clients: 30, Lambda: 0.5}, 21)
	sol, err := heuristics.MB(in)
	if err != nil {
		b.Skip("instance infeasible")
	}
	seed := float64(sol.StorageCost(in))
	b.Run("seeded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := lpbound.Refined(context.Background(), in, core.Multiple,
				lpbound.Options{MaxNodes: 200, Incumbent: seed}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unseeded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := lpbound.Refined(context.Background(), in, core.Multiple,
				lpbound.Options{MaxNodes: 200}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Facade sanity (keeps the public API exercised under bench) ---

func BenchmarkFacadeEndToEnd(b *testing.B) {
	in := replica.Generate(replica.GenConfig{Internal: 30, Clients: 60, Lambda: 0.4, UnitCosts: true}, 17)
	for i := 0; i < b.N; i++ {
		sol, err := replica.OptimalMultipleHomogeneous(in)
		if err != nil {
			b.Fatal(err)
		}
		if err := sol.Validate(in, replica.Multiple); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Serving subsystem (internal/service, cmd/rpserve) ---

// BenchmarkEngineSolve contrasts a cold solve (cache bypassed) with a
// cached one on the same instance: the cached path is the hot-traffic
// case the service is built for.
func BenchmarkEngineSolve(b *testing.B) {
	in := gen.Instance(gen.Config{Internal: 50, Clients: 100, Lambda: 0.4, UnitCosts: true}, 13)
	e := service.NewEngine(service.EngineOptions{})
	defer closeEngine(b, e)
	ctx := context.Background()
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.Solve(ctx, service.Request{
				Instance: in, Solver: "mb", Options: service.Options{NoCache: true},
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		req := service.Request{Instance: in, Solver: "mb"}
		if _, err := e.Solve(ctx, req); err != nil { // warm the cache
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Solve(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngineThroughput drives parallel mixed-solver requests over a
// pool of distinct instances — the serving hot path with a realistic
// hit/miss mix — and reports the end-of-run cache hit rate.
func BenchmarkEngineThroughput(b *testing.B) {
	insts := gen.Batch(gen.Config{Internal: 30, Clients: 60, Lambda: 0.4, UnitCosts: true}, 29, 16)
	solvers := []string{"mb", "optimal", "closest-optimal", "mg", "ctda", "ubcf"}
	e := service.NewEngine(service.EngineOptions{})
	defer closeEngine(b, e)
	ctx := context.Background()
	var i atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := int(i.Add(1))
			req := service.Request{
				Instance: insts[n%len(insts)],
				Solver:   solvers[n%len(solvers)],
			}
			if _, err := e.Solve(ctx, req); err != nil {
				// b.Fatal must not run on a RunParallel worker goroutine.
				b.Error(err)
				return
			}
		}
	})
	st := e.Stats()
	if st.Requests > 0 {
		b.ReportMetric(float64(st.CacheHits)/float64(st.Requests), "hit_rate")
	}
}

// BenchmarkEngineSolveBatch measures the batch path's amortization: 64
// request-vector variations of one topology, solved as one POST /v1/batch
// (topology decoded and preprocessed once, results streamed as NDJSON)
// versus the equivalent loop of single POST /v1/solve requests, each of
// which re-ships, re-decodes and re-validates the full instance. Both
// paths bypass the solution cache so the comparison measures transport,
// preprocessing and computation, not memoization. On multicore hosts the
// batch additionally fans its variations across the worker pool.
func BenchmarkEngineSolveBatch(b *testing.B) {
	const variations = 64
	in := gen.Instance(gen.Config{Internal: 100, Clients: 200, Lambda: 0.4, UnitCosts: true}, 31)
	vars := make([]service.BatchVariation, variations)
	for i := range vars {
		r := append([]int64(nil), in.R...)
		for _, c := range in.Tree.Clients() {
			r[c] += int64(i % 7)
		}
		vars[i] = service.BatchVariation{R: r}
	}

	e := service.NewEngine(service.EngineOptions{})
	defer closeEngine(b, e)
	srv := httptest.NewServer(service.NewHandler(e))
	defer srv.Close()

	// Pre-marshal every request body: both paths reuse their bytes, so
	// the measured difference is server-side decode + preprocess + solve
	// + transport, not client-side encoding.
	batchBody, err := json.Marshal(map[string]any{
		"topology": map[string]any{
			"parents":   in.Tree.Parents(),
			"is_client": in.Tree.ClientFlags(),
		},
		"solver":     "mg",
		"options":    map[string]any{"no_cache": true},
		"base":       map[string]any{"requests": in.R, "capacities": in.W, "storage_costs": in.S},
		"variations": vars,
	})
	if err != nil {
		b.Fatal(err)
	}
	solveBodies := make([][]byte, variations)
	for i, v := range vars {
		inst := *in
		inst.R = v.R
		solveBodies[i], err = json.Marshal(map[string]any{
			"instance": &inst,
			"solver":   "mg",
			"options":  map[string]any{"no_cache": true},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	post := func(b *testing.B, path string, body []byte) []byte {
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("%s: status %d: %s", path, resp.StatusCode, data)
		}
		return data
	}

	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out := post(b, "/v1/batch", batchBody)
			if n := bytes.Count(out, []byte("\n")); n != variations+1 {
				b.Fatalf("batch stream has %d lines, want %d", n, variations+1)
			}
		}
	})
	b.Run("loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, body := range solveBodies {
				post(b, "/v1/solve", body)
			}
		}
	})
}

func closeEngine(b *testing.B, e *service.Engine) {
	b.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Close(ctx); err != nil {
		b.Fatal(err)
	}
}

func sizeName(n int) string {
	switch {
	case n >= 1000:
		return "s=big"
	default:
		return "s=" + itoa(n)
	}
}

func lambdaName(l float64) string {
	return "l" + itoa(int(l*10))
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// --- Future-work campaigns (Section 10, implemented as extensions) ---

// BenchmarkExtQoSCampaign runs a slice of the QoS sweep and reports the
// Multiple-vs-Closest success separation as metrics.
func BenchmarkExtQoSCampaign(b *testing.B) {
	var res *experiments.QoSResults
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunQoS(experiments.QoSConfig{
			Ranges:        []int{0, 3},
			TreesPerRange: 6,
			MinSize:       15,
			MaxSize:       45,
			Seed:          4,
		})
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	last := res.Rows[len(res.Rows)-1]
	b.ReportMetric(float64(last.Success["MG-QoS"])/float64(last.Trees), "success_MGQoS_q3")
	b.ReportMetric(float64(last.Success["CTDA-QoS"])/float64(last.Trees), "success_CTDAQoS_q3")
}

// BenchmarkExtBandwidthCampaign runs a slice of the bandwidth sweep.
func BenchmarkExtBandwidthCampaign(b *testing.B) {
	var res *experiments.BWResults
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunBW(experiments.BWConfig{
			Factors:        []float64{0, 0.4},
			TreesPerFactor: 6,
			MinSize:        15,
			MaxSize:        45,
			Seed:           4,
		})
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	last := res.Rows[len(res.Rows)-1]
	b.ReportMetric(float64(last.Success["MG-BW"])/float64(last.Trees), "success_MGBW_f04")
	b.ReportMetric(float64(last.Success["CTDA-BW"])/float64(last.Trees), "success_CTDABW_f04")
}

// BenchmarkHeuristicScaling verifies the Section 6 complexity claim
// (worst-case quadratic) empirically: MB across growing sizes.
func BenchmarkHeuristicScaling(b *testing.B) {
	for _, size := range []int{50, 200, 800} {
		in := gen.Instance(gen.Config{Internal: size, Clients: 2 * size, Lambda: 0.4}, 5)
		b.Run(sizeName(size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _ = heuristics.MB(in)
			}
		})
	}
}

// BenchmarkOptimizeLocalSearch measures the Section 8.2 combined-objective
// local search.
func BenchmarkOptimizeLocalSearch(b *testing.B) {
	in := gen.Instance(gen.Config{Internal: 20, Clients: 40, Lambda: 0.4, UnitCosts: true}, 23)
	start, err := heuristics.MG(in)
	if err != nil {
		b.Skip("infeasible")
	}
	model := core.CostModel{Alpha: 1, Beta: 0.3, Gamma: 1}
	for i := 0; i < b.N; i++ {
		if _, err := optimize.Improve(in, start, optimize.Options{Model: model}); err != nil {
			b.Fatal(err)
		}
	}
}
