// Package replica is the public API of this library, a faithful
// reproduction of Benoit, Rehn and Robert, "Strategies for Replica
// Placement in Tree Networks" (IPDPS 2007).
//
// The problem: a fixed distribution tree has clients at the leaves (each
// issuing r_i requests) and candidate servers at the internal vertices
// (capacity W_j, storage cost s_j). Replicas must be placed, and requests
// routed to replicas on each client's path to the root, at minimal total
// storage cost, under one of three access policies:
//
//   - Closest:  each client uses the first replica above it (classical);
//   - Upwards:  each client uses one replica anywhere on its path;
//   - Multiple: a client's requests may split across several replicas.
//
// The package re-exports the implementation from the internal packages:
// exact solvers (the paper's optimal Multiple/homogeneous algorithm, an
// optimal Closest/homogeneous greedy, brute force for validation), the
// eight Section 6 heuristics plus MixedBest, LP-based lower bounds
// (Section 5/7.1), QoS and bandwidth constraints, random instance
// generation, and the Section 7 experimental campaign.
//
// Quick start:
//
//	b := replica.NewTreeBuilder()
//	root := b.AddRoot()
//	n1 := b.AddNode(root)
//	c1 := b.AddClient(n1)
//	in := replica.NewInstance(b.MustBuild())
//	in.W[root], in.W[n1] = 10, 10
//	in.S[root], in.S[n1] = 1, 1
//	in.R[c1] = 7
//	sol, err := replica.OptimalMultipleHomogeneous(in)
package replica

import (
	"context"
	"io"
	"net/http"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/heuristics"
	"repro/internal/jobs"
	"repro/internal/lpbound"
	"repro/internal/multiobject"
	"repro/internal/optimize"
	"repro/internal/render"
	"repro/internal/service"
	"repro/internal/session"
	"repro/internal/tree"
)

// Core model types, re-exported.
type (
	// Instance is a Replica Placement problem instance.
	Instance = core.Instance
	// Solution is a replica placement plus request assignment.
	Solution = core.Solution
	// Policy selects the access policy.
	Policy = core.Policy
	// Portion is one (server, load) share of a client's requests.
	Portion = core.Portion
	// CostModel weights storage/read/update costs (Section 8.2).
	CostModel = core.CostModel
	// Tree is the distribution-tree topology.
	Tree = tree.Tree
	// TreeBuilder incrementally constructs a Tree.
	TreeBuilder = tree.Builder
)

// Access policies.
const (
	Closest  = core.Closest
	Upwards  = core.Upwards
	Multiple = core.Multiple
)

// Sentinels for unconstrained clients and links.
const (
	NoQoS       = core.NoQoS
	NoBandwidth = core.NoBandwidth
)

// Policies lists the three access policies in the paper's order.
var Policies = core.Policies

// NewTreeBuilder returns an empty tree builder.
func NewTreeBuilder() *TreeBuilder { return tree.NewBuilder() }

// NewInstance allocates an instance over the tree with zeroed parameters.
func NewInstance(t *Tree) *Instance { return core.NewInstance(t) }

// ErrNoSolution is returned by solvers when the instance is infeasible
// (or, for heuristics, when the heuristic fails to find a placement).
var ErrNoSolution = exact.ErrNoSolution

// OptimalMultipleHomogeneous runs the paper's polynomial optimal
// algorithm (Section 4.1) for the Multiple policy on homogeneous
// platforms.
func OptimalMultipleHomogeneous(in *Instance) (*Solution, error) {
	return exact.MultipleHomogeneous(in)
}

// OptimalClosestHomogeneous runs the optimal bottom-up greedy for the
// Closest policy on homogeneous platforms.
func OptimalClosestHomogeneous(in *Instance) (*Solution, error) {
	return exact.ClosestHomogeneous(in)
}

// BruteForce computes an optimal solution by exhaustive enumeration
// (exponential; small instances only — see exact.MaxBruteForceNodes).
// Cancellation of ctx stops the enumeration promptly.
func BruteForce(ctx context.Context, in *Instance, p Policy) (*Solution, error) {
	return exact.BruteForce(ctx, in, p)
}

// HeuristicNames lists the Section 6 heuristics plus "MB" (MixedBest).
func HeuristicNames() []string {
	names := make([]string, 0, len(heuristics.All)+1)
	for _, h := range heuristics.All {
		names = append(names, h.Name)
	}
	return append(names, "MB")
}

// Solve runs the named heuristic ("CTDA", "CTDLF", "CBU", "UTD", "UBCF",
// "MTD", "MBU", "MG" or "MB").
func Solve(in *Instance, heuristic string) (*Solution, error) {
	h, ok := heuristics.ByName(heuristic)
	if !ok {
		return nil, &UnknownHeuristicError{Name: heuristic}
	}
	return h.Run(in)
}

// UnknownHeuristicError reports an unregistered heuristic name.
type UnknownHeuristicError struct{ Name string }

func (e *UnknownHeuristicError) Error() string {
	return "replica: unknown heuristic " + e.Name
}

// MixedBest runs all eight heuristics and returns the cheapest valid
// solution (a Multiple-policy solution).
func MixedBest(in *Instance) (*Solution, error) { return heuristics.MB(in) }

// RationalBound returns the fully rational LP relaxation value — a weak
// lower bound on the optimal storage cost (Section 5.3).
func RationalBound(in *Instance, p Policy) (float64, error) {
	return lpbound.Rational(in, p)
}

// LowerBound computes the Section 7.1 refined bound (integer placement
// variables, rational assignments) via budgeted branch-and-bound; the
// result is a valid lower bound even when truncated. Cancellation of ctx
// stops the search between branch nodes.
func LowerBound(ctx context.Context, in *Instance, p Policy, maxNodes int) (value float64, exact bool, err error) {
	b, err := lpbound.Refined(ctx, in, p, lpbound.Options{MaxNodes: maxNodes})
	if err != nil {
		return 0, false, err
	}
	return b.Value, b.Exact, nil
}

// GenConfig re-exports the random instance generator configuration.
type GenConfig = gen.Config

// Generate builds a seeded random instance.
func Generate(cfg GenConfig, seed int64) *Instance { return gen.Instance(cfg, seed) }

// CampaignConfig re-exports the Section 7 experiment configuration.
type CampaignConfig = experiments.Config

// CampaignResults re-exports the campaign outcome.
type CampaignResults = experiments.Results

// RunCampaign executes the Section 7 simulation campaign (Figures 9-12).
func RunCampaign(cfg CampaignConfig) (*CampaignResults, error) {
	return experiments.Run(cfg)
}

// OptimalClosestHomogeneousQoS solves Closest/homogeneous with QoS
// distance bounds (the polynomial case the paper cites from Liu et al.).
func OptimalClosestHomogeneousQoS(in *Instance) (*Solution, error) {
	return exact.ClosestHomogeneousQoS(in)
}

// SolveQoS runs the QoS-aware variant for the given policy ("Closest" ->
// CTDA-QoS, "Upwards" -> UBCF-QoS, "Multiple" -> MG-QoS).
func SolveQoS(in *Instance, p Policy) (*Solution, error) {
	for _, h := range heuristics.AllQoS {
		if h.Policy == p {
			return h.Run(in)
		}
	}
	return nil, &UnknownHeuristicError{Name: "qos:" + p.String()}
}

// SolveBandwidth runs the bandwidth-aware variant for the given policy
// ("Closest" -> CTDA-BW, "Upwards" -> UBCF-BW, "Multiple" -> MG-BW).
// MG-BW decides Multiple+bandwidth feasibility exactly.
func SolveBandwidth(in *Instance, p Policy) (*Solution, error) {
	for _, h := range heuristics.AllBW {
		if h.Policy == p {
			return h.Run(in)
		}
	}
	return nil, &UnknownHeuristicError{Name: "bw:" + p.String()}
}

// OptimizeOptions re-exports the combined-objective local search options.
type OptimizeOptions = optimize.Options

// Optimize improves a Multiple-policy solution under a combined
// storage/read/update objective (Section 8.2) by local search over
// replica sets. The result is never worse than the start.
func Optimize(in *Instance, start *Solution, opts OptimizeOptions) (*Solution, float64, error) {
	res, err := optimize.Improve(in, start, opts)
	if err != nil {
		return nil, 0, err
	}
	return res.Solution, res.Cost, nil
}

// Serving subsystem, re-exported. Engine is a long-running concurrent
// solver service: every exact solver, heuristic, QoS/bandwidth variant
// and LP bound behind one request interface, scheduled on a bounded
// worker pool with a canonical-hash solution cache. cmd/rpserve exposes
// it over HTTP.
type (
	// Engine is the concurrent placement engine.
	Engine = service.Engine
	// EngineOptions configures NewEngine; its zero value is ready to use.
	EngineOptions = service.EngineOptions
	// ServiceRequest names one computation (instance + solver + options).
	ServiceRequest = service.Request
	// ServiceResponse is the outcome of a ServiceRequest.
	ServiceResponse = service.Response
	// ServiceOptions are the per-request knobs (deadline, cache bypass,
	// bound budget).
	ServiceOptions = service.Options
	// SolverRegistry maps solver names to backends; custom backends
	// (e.g. sharded or remote solvers) register here.
	SolverRegistry = service.Registry
)

// NewEngine starts a concurrent placement engine and its worker pool.
// Callers must Close it to release the workers.
func NewEngine(opts EngineOptions) *Engine { return service.NewEngine(opts) }

// NewServiceHandler returns the engine's HTTP API (the one cmd/rpserve
// serves), for embedding into an existing server. Async /v1/jobs
// endpoints answer 501 here; use NewServiceHandlerOpts with a
// JobsManager to enable them.
func NewServiceHandler(e *Engine) http.Handler { return service.NewHandler(e) }

// ServiceHandlerOptions configures NewServiceHandlerOpts (async job
// manager, inline-campaign limits).
type ServiceHandlerOptions = service.HandlerOptions

// NewServiceHandlerOpts is NewServiceHandler with options.
func NewServiceHandlerOpts(e *Engine, opts ServiceHandlerOptions) http.Handler {
	return service.NewHandlerOpts(e, opts)
}

// JobsManager owns async campaign/batch jobs end to end: bounded
// concurrent execution, per-job cancellation, row-by-row checkpoints,
// and — over a persistent store — resume after a restart.
type JobsManager = jobs.Manager

// NewJobsManager builds a job manager for the engine. dir selects the
// persistent file store (empty = in-memory); workers bounds
// concurrently running jobs. Close it before the engine on shutdown so
// running jobs checkpoint.
func NewJobsManager(e *Engine, dir string, workers int) (*JobsManager, error) {
	return service.NewJobsManager(e, dir, workers)
}

// Cluster subsystem, re-exported: sharded multi-process execution over
// worker daemons (rpworker, or rpserve -worker) speaking the ordinary
// HTTP surface.
type (
	// ClusterPool fans work out over a dynamic set of worker shards,
	// with per-shard health probing, circuit breaking, bounded
	// in-flight requests, load-weighted placement and
	// retry-with-failover. Membership changes at runtime via
	// AddShard/RemoveShard (the POST/DELETE /v1/cluster/shards API),
	// SyncFile (a shards-file reload) or a worker's ClusterRegistrar.
	ClusterPool = cluster.Pool
	// ClusterPoolOptions configures NewClusterPool; its zero value is
	// ready to use.
	ClusterPoolOptions = cluster.PoolOptions
	// ClusterShardEntry is one parsed shards-file line (address plus
	// optional explicit weight).
	ClusterShardEntry = cluster.ShardEntry
	// ClusterRegistrar keeps a worker registered with a coordinator:
	// POST at startup, heartbeat re-registration, DELETE on Stop.
	ClusterRegistrar = cluster.Registrar
)

// NewClusterPool builds a shard pool over worker addresses ("host:port"
// or full URLs) and starts its health prober. The list may be empty —
// workers can join a running pool later. Close it when done.
func NewClusterPool(addrs []string, opts ClusterPoolOptions) (*ClusterPool, error) {
	return cluster.NewPool(addrs, opts)
}

// ParseClusterShardsFile parses a shards file: one "addr [weight]" per
// line, #-comments allowed. Feed the entries to ClusterPool.SyncFile
// to reconcile a running pool's file-managed membership.
func ParseClusterShardsFile(r io.Reader) ([]ClusterShardEntry, error) {
	return cluster.ParseShardsFile(r)
}

// RegisterRemoteSolvers registers, for every solver in the registry, a
// "<name>@remote" twin whose computation is proxied through the pool.
// The engine's cache, single-flight and validation apply to the remote
// twins unchanged.
func RegisterRemoteSolvers(reg *SolverRegistry, p *ClusterPool) error {
	return cluster.RegisterRemote(reg, p)
}

// ClusterJobKinds returns the job kinds a coordinator registers in place
// of the local ones (see ServiceJobsOptions.Kinds): campaign λ rows are
// partitioned across the pool's shards, and batch jobs run the missing
// variations through the pool's routed batch path, as /v1/batch does —
// cache probe first, rows no shard takes computed on e, rows persisted
// in index order and counted in the pool's routed/fallback stats. Rows
// merge into the same append-only row log, byte-identical to a
// single-process run.
func ClusterJobKinds(e *Engine, p *ClusterPool) []jobs.Kind {
	return cluster.Kinds(e, p)
}

// ServiceJobsOptions configures NewJobsManagerOpts (store directory,
// concurrency, retention, job kinds).
type ServiceJobsOptions = service.JobsOptions

// NewJobsManagerOpts is NewJobsManager with retention and kind control.
func NewJobsManagerOpts(e *Engine, opts ServiceJobsOptions) (*JobsManager, error) {
	return service.NewJobsManagerOpts(e, opts)
}

// Placement sessions, re-exported: a registered instance that stays
// live on the server, absorbs typed delta ops (set_rate, set_capacity,
// add_client, remove_client) and re-solves — incrementally for the
// subtree-local heuristics — emitting watchable placement diffs. The
// HTTP surface is /v1/instances (see api/openapi.yaml).
type (
	// SessionManager owns the live sessions: creation against a solver
	// resolver, lookup, deletion, idle expiry, aggregate stats.
	SessionManager = session.Manager
	// SessionManagerOptions configures NewSessionManager; the zero
	// value resolves nothing, so set Resolve (ServiceSessionResolver
	// adapts a SolverRegistry).
	SessionManagerOptions = session.Options
	// PlacementSession is one live session: Apply ops, read Status,
	// Replicas and Solution, Watch diffs.
	PlacementSession = session.Session
	// SessionOp is one typed delta op of an Apply batch.
	SessionOp = session.Op
	// SessionDiff is one revision's placement diff (add/drop/cost).
	SessionDiff = session.Diff
)

// NewSessionManager builds a session manager. Close it before the
// engine on shutdown so watch streams end and sessions release.
func NewSessionManager(opts SessionManagerOptions) *SessionManager {
	return session.NewManager(opts)
}

// ServiceSessionResolver adapts a solver registry into the resolver a
// SessionManager needs, marking the incremental-capable heuristics
// (mg, cbu) and rejecting bound-only and multi-object solvers.
func ServiceSessionResolver(reg *SolverRegistry) session.ResolveFunc {
	return service.SessionResolver(reg)
}

// Multi-object placement (paper Section 8), re-exported: K objects
// placed jointly under shared server capacities. Through the engine the
// same models run as the "mo-greedy" and "lp-mo-rational" solvers with
// per-object vectors in Options.Objects.
type (
	// MultiObjectInstance couples a base instance with per-object
	// request and storage-cost vectors.
	MultiObjectInstance = multiobject.Instance
	// MultiObjectSolution holds one placement per object.
	MultiObjectSolution = multiobject.Solution
)

// SolveMultiObject places every object of mi jointly under the Multiple
// policy, greedily splitting the shared capacities.
func SolveMultiObject(mi *MultiObjectInstance) (*MultiObjectSolution, error) {
	return multiobject.GreedyMultiple(mi)
}

// MultiObjectLowerBound is the fully rational LP relaxation of the
// joint placement problem — a certified lower bound on any integral
// multi-object placement cost.
func MultiObjectLowerBound(mi *MultiObjectInstance) (float64, error) {
	return multiobject.RationalBound(mi)
}

// RenderTree writes the instance (and optionally a solution's placement)
// as an ASCII tree.
func RenderTree(w io.Writer, in *Instance, sol *Solution) error {
	return render.Tree(w, in, render.Options{Solution: sol, ShowQoS: true, ShowBandwidth: true})
}

// RenderSummary writes a per-replica utilization summary of a solution.
func RenderSummary(w io.Writer, in *Instance, sol *Solution) error {
	return render.Summary(w, in, sol)
}
