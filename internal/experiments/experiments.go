// Package experiments implements the Section 7 simulation campaign: for a
// sweep of load factors λ, generate random trees, run every heuristic,
// compute the LP-based lower bound, and aggregate the two metrics of the
// paper — percentage of success (Figures 9 and 11) and relative cost
// rcost = (1/|Tλ|) Σ costLP/costh (Figures 10 and 12, with costh = +∞ for
// failed runs).
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/heuristics"
	"repro/internal/lpbound"
)

// Names lists the series of every figure, in the paper's legend order:
// the eight heuristics, MixedBest, and the LP row (success only).
var Names = []string{"CTDA", "CTDLF", "CBU", "UTD", "UBCF", "MG", "MTD", "MBU", "MB"}

// numSeries is len(Names), as a constant so per-tree outcomes can be
// dense arrays instead of maps.
const (
	numSeries = 9
	mgOrdinal = 5 // index of "MG" in Names
	mbOrdinal = 8 // index of "MB" in Names
)

// ordinal indexes heuristic short names into the dense per-tree cost
// arrays (the campaign's hot path avoids per-tree maps entirely).
var ordinal = func() map[string]int {
	if len(Names) != numSeries || Names[mgOrdinal] != "MG" || Names[mbOrdinal] != "MB" {
		panic("experiments: Names out of sync with ordinals")
	}
	m := make(map[string]int, len(Names))
	for i, n := range Names {
		m[n] = i
	}
	return m
}()

// Config parameterizes a campaign. The zero value reproduces a scaled-down
// version of the paper's plan. Its trees went up to s = 400 with GLPK;
// here the default stops at s = 120 because the refined LP bound
// (lpbound.Refined, BoundNodes branch-and-bound nodes per tree, each a
// dense simplex re-solved from scratch) dominates a campaign's time and
// grows steeply with s.
type Config struct {
	// Heterogeneous selects the Figure 11/12 variant.
	Heterogeneous bool
	// Lambdas are the target loads. Default 0.1..0.9 step 0.1.
	Lambdas []float64
	// TreesPerLambda is the number of random trees per λ. Default 30.
	TreesPerLambda int
	// MinSize/MaxSize bound the problem size s = |C| + |N|.
	// Defaults 15 and 120.
	MinSize, MaxSize int
	// Seed drives all generation. Default 1.
	Seed int64
	// BoundNodes is the branch-and-bound budget per tree for the refined
	// LP bound. Default 60.
	BoundNodes int
	// Parallelism is the number of worker goroutines evaluating trees.
	// Values below 1 select GOMAXPROCS. Results are independent of the
	// worker count: every tree is generated from its own seed and
	// aggregated in index order.
	Parallelism int
	// StartRow resumes a campaign from a checkpoint: the first StartRow
	// λ values are skipped entirely and Results.Rows holds only the rows
	// from that index on. Generation seeds stay tied to the absolute λ
	// index, so a resumed campaign produces exactly the rows a full run
	// would have produced from that point.
	StartRow int
	// EndRow, when positive, stops the campaign before that row index
	// (exclusive). Combined with StartRow it selects an arbitrary slice
	// of the sweep: {StartRow: i, EndRow: i + 1} computes exactly row i,
	// bit-identical to row i of a full run — the unit a cluster shard
	// executes. Zero (or a value past the sweep) means run to the end.
	EndRow int
	// Progress, when non-nil, is called with each aggregated row as soon
	// as its λ completes, in λ order. It lets callers stream campaign
	// progress; it has no effect on the produced rows. A non-nil return
	// aborts the campaign before the next λ, and Run returns that error.
	Progress func(Row) error `json:"-"`
	// Context, when non-nil, cancels the campaign mid-λ: the bound
	// computations observe it between branch-and-bound nodes, and Run
	// returns the context error. Nil means context.Background().
	Context context.Context `json:"-"`
}

func (c Config) withDefaults() Config {
	if len(c.Lambdas) == 0 {
		c.Lambdas = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	}
	if c.TreesPerLambda <= 0 {
		c.TreesPerLambda = 30
	}
	if c.MinSize <= 0 {
		c.MinSize = 15
	}
	if c.MaxSize < c.MinSize {
		c.MaxSize = 120
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.BoundNodes <= 0 {
		c.BoundNodes = 60
	}
	if c.StartRow < 0 {
		c.StartRow = 0
	}
	if c.EndRow < 0 {
		c.EndRow = 0
	}
	return c
}

// Normalized returns the config with every default applied, so callers
// persisting a config (e.g. an async job manifest) can pin the exact
// sweep — λ values, sizes, seed — a later resume will re-derive.
func (c Config) Normalized() Config { return c.withDefaults() }

// Row aggregates one λ value. The JSON tags are the wire form used by
// the service layer (inline campaign streams and persisted job rows
// share it, so checkpointed rows round-trip losslessly).
type Row struct {
	Lambda float64 `json:"lambda"`
	Trees  int     `json:"trees"`
	// LPSolvable counts trees feasible under the Multiple policy (the
	// paper's "number of solutions obtained by the linear program").
	LPSolvable int `json:"lp_solvable"`
	// Success counts trees solved per heuristic.
	Success map[string]int `json:"success"`
	// RelCost is the paper's rcost per heuristic: the average over
	// LP-solvable trees of bound/cost, counting failures as zero.
	RelCost map[string]float64 `json:"rel_cost"`
	// BoundExact counts trees whose refined bound closed within budget.
	BoundExact int `json:"bound_exact"`
}

// Results is a full campaign outcome.
type Results struct {
	Config Config
	Rows   []Row
}

// treeOutcome is the per-tree measurement produced by a worker. Costs are
// a dense array indexed by heuristic ordinal (the order of Names), not a
// map: one campaign evaluates thousands of trees and the scratch-pooled
// heuristics no longer allocate, so the aggregation should not either.
type treeOutcome struct {
	costs      [numSeries]int64
	solved     [numSeries]bool
	solvable   bool
	bound      float64
	boundExact bool
	err        error
}

// evaluateTree runs every heuristic and the refined bound on one tree.
func evaluateTree(ctx context.Context, in *core.Instance, boundNodes int) treeOutcome {
	var out treeOutcome
	run := func(name string, f heuristics.Func) {
		if sol, err := f(in); err == nil {
			i := ordinal[name]
			out.costs[i] = sol.StorageCost(in)
			out.solved[i] = true
		}
	}
	for _, h := range heuristics.All {
		run(h.Name, h.Run)
	}
	run("MB", heuristics.MB)

	// Feasibility of the Multiple policy decides LP solvability (MG is
	// exact on feasibility and far cheaper than the LP).
	if !out.solved[mgOrdinal] {
		return out
	}
	out.solvable = true

	// Refined bound, seeded with the best heuristic cost.
	opts := lpbound.Options{MaxNodes: boundNodes}
	if out.solved[mbOrdinal] {
		opts.Incumbent = float64(out.costs[mbOrdinal])
	}
	b, err := lpbound.Refined(ctx, in, core.Multiple, opts)
	if err != nil {
		if errors.Is(err, lpbound.ErrInfeasible) {
			// MG solved it, so the relaxation cannot be infeasible.
			out.err = fmt.Errorf("experiments: bound infeasible on an MG-solvable tree")
		} else {
			out.err = err
		}
		return out
	}
	out.bound = b.Value
	out.boundExact = b.Exact
	return out
}

// Run executes the campaign. It is deterministic in Config.Seed,
// regardless of Config.Parallelism: trees are generated from per-index
// seeds up front and evaluated independently by a worker pool.
func Run(cfg Config) (*Results, error) {
	cfg = cfg.withDefaults()
	ctx := cfg.Context
	if ctx == nil {
		ctx = context.Background()
	}
	workers := cfg.Parallelism
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	end := len(cfg.Lambdas)
	if cfg.EndRow > 0 && cfg.EndRow < end {
		end = cfg.EndRow
	}
	res := &Results{Config: cfg}
	for li := cfg.StartRow; li < end; li++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		lambda := cfg.Lambdas[li]
		row := Row{
			Lambda:  lambda,
			Trees:   cfg.TreesPerLambda,
			Success: map[string]int{},
			RelCost: map[string]float64{},
		}
		genCfg := gen.Config{
			Lambda:        lambda,
			Heterogeneous: cfg.Heterogeneous,
			UnitCosts:     !cfg.Heterogeneous,
		}
		seed := cfg.Seed + int64(li)*1_000_003
		insts := gen.SizeSweep(genCfg, seed, cfg.TreesPerLambda, cfg.MinSize, cfg.MaxSize)

		outcomes := make([]treeOutcome, len(insts))
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					outcomes[i] = evaluateTree(ctx, insts[i], cfg.BoundNodes)
				}
			}()
		}
		for i := range insts {
			next <- i
		}
		close(next)
		wg.Wait()

		for _, out := range outcomes {
			if out.err != nil {
				return nil, out.err
			}
			for i, name := range Names {
				if out.solved[i] {
					row.Success[name]++
				}
			}
			if !out.solvable {
				continue
			}
			row.LPSolvable++
			if out.boundExact {
				row.BoundExact++
			}
			for i, name := range Names {
				if out.solved[i] && out.costs[i] > 0 {
					row.RelCost[name] += out.bound / float64(out.costs[i])
				}
			}
		}
		if row.LPSolvable > 0 {
			for _, name := range Names {
				row.RelCost[name] /= float64(row.LPSolvable)
			}
		}
		res.Rows = append(res.Rows, row)
		if cfg.Progress != nil {
			if err := cfg.Progress(row); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// SuccessTable renders the Figure 9/11 series: per λ, the fraction of
// trees each heuristic solved, plus the LP row.
func (r *Results) SuccessTable() string {
	var sb strings.Builder
	header := append([]string{"lambda"}, Names...)
	header = append(header, "LP")
	writeRowf(&sb, header)
	for _, row := range r.Rows {
		cells := []string{fmt.Sprintf("%.1f", row.Lambda)}
		for _, name := range Names {
			cells = append(cells, fmt.Sprintf("%.2f", float64(row.Success[name])/float64(row.Trees)))
		}
		cells = append(cells, fmt.Sprintf("%.2f", float64(row.LPSolvable)/float64(row.Trees)))
		writeRowf(&sb, cells)
	}
	return sb.String()
}

// RelCostTable renders the Figure 10/12 series: per λ, the average
// bound/cost ratio per heuristic over LP-solvable trees.
func (r *Results) RelCostTable() string {
	var sb strings.Builder
	writeRowf(&sb, append([]string{"lambda"}, Names...))
	for _, row := range r.Rows {
		cells := []string{fmt.Sprintf("%.1f", row.Lambda)}
		for _, name := range Names {
			cells = append(cells, fmt.Sprintf("%.2f", row.RelCost[name]))
		}
		writeRowf(&sb, cells)
	}
	return sb.String()
}

func writeRowf(sb *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(sb, "%-6s", c)
	}
	sb.WriteByte('\n')
}

// WriteCSV emits both metrics in long form:
// case,metric,lambda,series,value.
func (r *Results) WriteCSV(w io.Writer) error {
	cs := "homogeneous"
	if r.Config.Heterogeneous {
		cs = "heterogeneous"
	}
	var rows []string
	for _, row := range r.Rows {
		for _, name := range Names {
			rows = append(rows,
				fmt.Sprintf("%s,success,%.1f,%s,%.4f", cs, row.Lambda, name,
					float64(row.Success[name])/float64(row.Trees)),
				fmt.Sprintf("%s,rcost,%.1f,%s,%.4f", cs, row.Lambda, name, row.RelCost[name]))
		}
		rows = append(rows, fmt.Sprintf("%s,success,%.1f,LP,%.4f", cs, row.Lambda,
			float64(row.LPSolvable)/float64(row.Trees)))
	}
	sort.Strings(rows)
	if _, err := io.WriteString(w, "case,metric,lambda,series,value\n"+strings.Join(rows, "\n")+"\n"); err != nil {
		return err
	}
	return nil
}
