package service

import (
	"context"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/session"
)

// HandlerOptions configures NewHandlerOpts beyond the engine itself.
type HandlerOptions struct {
	// Jobs enables the async /v1/jobs endpoints (nil leaves them
	// registered but answering 501, pointing at the configuration).
	Jobs *jobs.Manager
	// MaxInlineCampaigns bounds concurrently streaming /v1/campaign
	// requests; beyond it the handler answers 503 with a Retry-After
	// hint instead of queueing unboundedly. 0 selects the default (2);
	// negative disables the limit.
	MaxInlineCampaigns int
	// Cluster, when the daemon fronts a shard pool, feeds the per-shard
	// health section of /healthz and the rp_cluster_* metrics.
	Cluster ClusterInfo
	// ClusterSecret, when non-empty, is the shared secret required (as
	// the X-RP-Cluster-Secret header, compared in constant time) by the
	// mutating membership endpoints POST/DELETE /v1/cluster/shards.
	// Requests without it answer 401. Empty leaves them open — fine on a
	// trusted network, and the pre-secret behavior.
	ClusterSecret string
	// Wire, when set, is mounted at GET /v1/wire: the binary streaming
	// transport's upgrade endpoint (see internal/cluster/wire). Workers
	// set it; a daemon without it answers 404 there, which a coordinator
	// reads as "speak JSON/HTTP to this shard".
	Wire http.Handler
	// Logger receives the handler's request logs: a warn line for every
	// request slower than SlowRequest, plus per-request debug lines when
	// the level admits them. Every line carries the request's trace ID.
	// Nil discards.
	Logger *slog.Logger
	// SlowRequest is the latency threshold above which a completed
	// request is logged at warn level. Zero disables the slow log.
	SlowRequest time.Duration
	// Spans, when set, is the process flight recorder: sampled requests
	// record span trees into it, queried via GET /v1/traces/{id} and
	// GET /debug/traces. Nil disables span tracing (the endpoints answer
	// 501).
	Spans *obs.SpanStore
	// TraceSample is the fraction of requests recording spans (1 =
	// every request, the default when Spans is set and TraceSample is
	// 0). Slow requests are retained regardless of sampling.
	TraceSample float64
	// SLO, when set, tracks availability and latency objectives over the
	// handler's traffic: the instrumentation middleware feeds it, its
	// verdict folds into /healthz, and GET /v1/alerts serves its alert
	// state. Nil leaves /v1/alerts answering 501 and /healthz always
	// "ok".
	SLO *obs.SLO
	// Events, when set, is the cluster event journal served at
	// GET /debug/events and counted in rp_cluster_events_total. Nil
	// leaves the endpoint answering 501.
	Events *obs.EventRing
	// Sessions enables the placement-session endpoints under
	// /v1/instances (nil leaves them registered but answering 501,
	// pointing at the configuration). Build one with session.NewManager
	// and SessionResolver.
	Sessions *session.Manager
}

// defaultInlineCampaigns is the /v1/campaign concurrency limit when
// HandlerOptions does not set one. A campaign saturates every core by
// itself, so this stays tiny; big runs belong on /v1/jobs.
const defaultInlineCampaigns = 2

// campaignRetryAfter is the Retry-After hint (seconds) of a saturated
// /v1/campaign.
const campaignRetryAfter = 10

// api holds the handler's state: the engine, the optional job manager,
// the optional shard pool, and the inline-campaign slots.
type api struct {
	e           *Engine
	jobs        *jobs.Manager
	cluster     ClusterInfo
	secret      string        // shared secret guarding membership writes
	wire        http.Handler  // binary transport upgrade endpoint
	campaignSem chan struct{} // nil = unlimited
	log         *slog.Logger
	slowReq     time.Duration
	spans       *obs.SpanStore
	traceSample float64
	slo         *obs.SLO         // nil = no SLO tracking
	events      *obs.EventRing   // nil = no event journal
	sessions    *session.Manager // nil = placement sessions disabled
	red         *redMetrics      // per-route request counts and latency
}

// NewHandler returns the HTTP API served by cmd/rpserve, with default
// options (no async jobs):
//
//	GET  /healthz      liveness plus engine counters (global and
//	                   per-solver cache hit/miss/coalesced)
//	GET  /metrics      the same counters (plus job-state gauges) in
//	                   Prometheus text format
//	GET  /v1/solvers   the solver registry listing with cache counters
//	POST /v1/solve     run a solver on an instance
//	POST /v1/bound     run an LP bound (shorthand for the lp-* solvers)
//	POST /v1/batch     run one solver over N parameter variations of a
//	                   single topology, streaming one JSON line per
//	                   variation as it completes (NDJSON)
//	POST /v1/generate  build a seeded random instance
//	POST /v1/campaign  run a Section 7 campaign inline, streaming one
//	                   JSON line per λ as it completes (NDJSON);
//	                   answers 503 + Retry-After when its slots are
//	                   saturated — big runs belong on /v1/jobs
//	POST   /v1/jobs             submit an async campaign or batch job
//	GET    /v1/jobs             list jobs (?limit=&after= paginates with
//	                            a stable order and a "next" cursor)
//	GET    /v1/jobs/{id}        job status, progress and rows so far
//	GET    /v1/jobs/{id}/result final rows (JSON, or ?format=csv)
//	DELETE /v1/jobs/{id}        cancel a live job / delete a finished one
//	GET  /v1/worker/ping        lightweight liveness probe, polled by a
//	                            coordinator's shard pool
//	POST   /v1/instances            register a placement session (JSON, or
//	                                streaming NDJSON for very large trees)
//	GET    /v1/instances            list live sessions
//	GET    /v1/instances/{id}       session status (?include_solution=1,
//	                                ?include_instance=1)
//	PATCH  /v1/instances/{id}       apply a batch of typed delta ops
//	                                atomically, bumping the revision
//	DELETE /v1/instances/{id}       delete the session, ending watchers
//	GET    /v1/instances/{id}/watch stream placement diffs as NDJSON,
//	                                resumable with ?from_rev=N
//
// All request and response bodies are JSON. Errors are
// {"error": "..."} with a matching status code.
func NewHandler(e *Engine) http.Handler { return NewHandlerOpts(e, HandlerOptions{}) }

// NewHandlerOpts is NewHandler with a job manager and inline-campaign
// limits.
func NewHandlerOpts(e *Engine, opts HandlerOptions) http.Handler {
	return newAPI(e, opts).routes()
}

func newAPI(e *Engine, opts HandlerOptions) *api {
	slots := opts.MaxInlineCampaigns
	if slots == 0 {
		slots = defaultInlineCampaigns
	}
	a := &api{e: e, jobs: opts.Jobs, cluster: opts.Cluster,
		secret: opts.ClusterSecret, wire: opts.Wire,
		log: opts.Logger, slowReq: opts.SlowRequest,
		spans: opts.Spans, traceSample: opts.TraceSample,
		slo: opts.SLO, events: opts.Events, sessions: opts.Sessions,
		red: newRedMetrics()}
	if a.log == nil {
		a.log = obs.NopLogger()
	}
	if a.traceSample == 0 {
		a.traceSample = 1
	}
	if slots > 0 {
		a.campaignSem = make(chan struct{}, slots)
	}
	return a
}

func (a *api) routes() http.Handler {
	e := a.e
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// The SLO verdict folds into the liveness answer: status stays a
		// 200 (the process is up and answering) but flips from "ok" to
		// "degraded"/"critical" when burn-rate alerts are firing, so a
		// plain healthz poll doubles as the cluster health signal.
		payload := healthPayload{Status: "ok", Version: buildVersion(),
			Stats: e.Stats(), Jobs: a.jobStats(),
			Shards: a.shardStats(), Cluster: a.clusterStats()}
		if a.slo != nil {
			st := a.slo.Evaluate()
			payload.Status = st.Verdict
			payload.SLO = &st
		}
		writeJSON(w, http.StatusOK, payload)
	})
	mux.HandleFunc("GET /v1/worker/ping", func(w http.ResponseWriter, r *http.Request) {
		// The lightweight liveness probe a cluster pool hits on every
		// health check: no cache walk, no per-solver map copies.
		st := e.Stats()
		writeJSON(w, http.StatusOK, pingPayload{
			Status:   "ok",
			Workers:  st.Workers,
			InFlight: st.InFlight,
			QueueLen: st.QueueLen,
		})
	})
	mux.HandleFunc("GET /metrics", a.handleMetrics)
	mux.HandleFunc("GET /v1/solvers", func(w http.ResponseWriter, r *http.Request) {
		solvers := e.Registry().Solvers()
		perSolver := e.Stats().PerSolver
		out := make([]solverInfo, 0, len(solvers))
		for _, s := range solvers {
			info := solverInfo{Name: s.Name, Long: s.Long, Policy: s.Policy.String(), Kind: s.Kind}
			if st, ok := perSolver[s.Name]; ok {
				st := st
				info.Cache = &st
			}
			out = append(out, info)
		}
		writeJSON(w, http.StatusOK, solversPayload{Solvers: out})
	})
	mux.HandleFunc("POST /v1/solve", func(w http.ResponseWriter, r *http.Request) {
		handleSolve(e, w, r, "")
	})
	mux.HandleFunc("POST /v1/bound", func(w http.ResponseWriter, r *http.Request) {
		handleSolve(e, w, r, "lp-")
	})
	mux.HandleFunc("POST /v1/batch", a.handleBatch)
	mux.HandleFunc("POST /v1/generate", handleGenerate)
	mux.HandleFunc("POST /v1/campaign", a.handleCampaign)
	mux.HandleFunc("GET /v1/cluster/shards", a.handleClusterList)
	mux.HandleFunc("POST /v1/cluster/shards", a.handleClusterJoin)
	mux.HandleFunc("DELETE /v1/cluster/shards", a.handleClusterLeave)
	mux.HandleFunc("GET /v1/cluster/metrics", a.handleFederate)
	mux.HandleFunc("GET /v1/alerts", a.handleAlerts)
	mux.HandleFunc("GET /v1/traces/{id}", a.handleTrace)
	mux.HandleFunc("GET /debug/traces", a.handleTraceList)
	mux.HandleFunc("GET /debug/events", a.handleEvents)
	if a.wire != nil {
		mux.Handle("GET /v1/wire", a.wire)
	}
	a.registerJobRoutes(mux)
	a.registerSessionRoutes(mux)
	return a.instrument(mux)
}

// membership returns the pool's join/leave surface, nil when the daemon
// fronts no cluster (or a read-only ClusterInfo implementation).
func (a *api) membership() ClusterMembership {
	m, _ := a.cluster.(ClusterMembership)
	return m
}

// clusterStats snapshots the pool-level counters, nil without a pool
// that tracks them.
func (a *api) clusterStats() *ClusterStats {
	if p, ok := a.cluster.(ClusterStatsProvider); ok {
		st := p.ClusterStats()
		return &st
	}
	return nil
}

// shardChangeWire is the POST/DELETE /v1/cluster/shards body.
type shardChangeWire struct {
	Addr   string `json:"addr"`
	Weight int    `json:"weight"`
}

// clusterPayload answers the cluster membership endpoints.
type clusterPayload struct {
	Epoch   uint64      `json:"epoch"`
	Shards  []ShardStat `json:"shards"`
	Joined  *bool       `json:"joined,omitempty"`  // POST: was the address new
	Removed *bool       `json:"removed,omitempty"` // DELETE: was it a member
}

var errNoCluster = errors.New("this daemon fronts no shard pool; start it as a coordinator (-shards, -shards-file or -coordinator)")

// ClusterSecretHeader carries the shared membership secret on
// POST/DELETE /v1/cluster/shards (and on the registrar's heartbeats).
const ClusterSecretHeader = "X-RP-Cluster-Secret"

// authorizeClusterChange enforces the shared-secret check on the
// mutating membership endpoints. The comparison is constant-time so the
// secret can't be probed byte by byte off response latency.
func (a *api) authorizeClusterChange(w http.ResponseWriter, r *http.Request) bool {
	if a.secret == "" {
		return true
	}
	// Hash both sides first: ConstantTimeCompare is only constant-time
	// for equal lengths, and the digest makes the lengths equal.
	got := sha256.Sum256([]byte(r.Header.Get(ClusterSecretHeader)))
	want := sha256.Sum256([]byte(a.secret))
	if subtle.ConstantTimeCompare(got[:], want[:]) == 1 {
		return true
	}
	writeError(w, http.StatusUnauthorized, fmt.Errorf("missing or wrong %s header", ClusterSecretHeader))
	return false
}

func (a *api) handleClusterList(w http.ResponseWriter, r *http.Request) {
	m := a.membership()
	if m == nil {
		writeError(w, http.StatusNotImplemented, errNoCluster)
		return
	}
	writeJSON(w, http.StatusOK, clusterPayload{Epoch: m.Epoch(), Shards: m.ShardStats()})
}

// handleClusterJoin registers (or re-weights) a worker shard. Workers
// self-register here on a heartbeat, so the handler is idempotent: a
// known address answers 200 with joined=false.
func (a *api) handleClusterJoin(w http.ResponseWriter, r *http.Request) {
	m := a.membership()
	if m == nil {
		writeError(w, http.StatusNotImplemented, errNoCluster)
		return
	}
	if !a.authorizeClusterChange(w, r) {
		return
	}
	var req shardChangeWire
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Addr == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing addr"))
		return
	}
	if req.Weight < 0 {
		writeError(w, http.StatusBadRequest, errors.New("negative weight"))
		return
	}
	_, joined, err := m.AddShard(req.Addr, req.Weight)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, clusterPayload{Epoch: m.Epoch(), Shards: m.ShardStats(), Joined: &joined})
}

// handleClusterLeave deregisters a shard. The address comes from the
// JSON body ({"addr": ...}) or, for curl-friendliness, ?addr=. Unknown
// addresses answer 200 with removed=false — deregistration races a
// coordinator restart, and the loser should not read it as a failure.
func (a *api) handleClusterLeave(w http.ResponseWriter, r *http.Request) {
	m := a.membership()
	if m == nil {
		writeError(w, http.StatusNotImplemented, errNoCluster)
		return
	}
	if !a.authorizeClusterChange(w, r) {
		return
	}
	addr := r.URL.Query().Get("addr")
	if addr == "" {
		var req shardChangeWire
		if err := decodeJSON(r, &req); err == nil {
			addr = req.Addr
		}
	}
	if addr == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing addr (JSON body or ?addr=)"))
		return
	}
	removed := m.RemoveShard(addr)
	writeJSON(w, http.StatusOK, clusterPayload{Epoch: m.Epoch(), Shards: m.ShardStats(), Removed: &removed})
}

// jobStats snapshots the job manager's gauges, nil without a manager.
func (a *api) jobStats() *jobs.Stats {
	if a.jobs == nil {
		return nil
	}
	st := a.jobs.Stats()
	return &st
}

// shardStats snapshots the shard pool, nil without one.
func (a *api) shardStats() []ShardStat {
	if a.cluster == nil {
		return nil
	}
	return a.cluster.ShardStats()
}

type healthPayload struct {
	Status  string         `json:"status"`
	Version string         `json:"version,omitempty"`
	Stats   Stats          `json:"stats"`
	Jobs    *jobs.Stats    `json:"jobs,omitempty"`
	Shards  []ShardStat    `json:"shards,omitempty"`
	Cluster *ClusterStats  `json:"cluster,omitempty"`
	SLO     *obs.SLOStatus `json:"slo,omitempty"`
}

// pingPayload is the GET /v1/worker/ping body.
type pingPayload struct {
	Status   string `json:"status"`
	Workers  int    `json:"workers"`
	InFlight int64  `json:"in_flight"`
	QueueLen int    `json:"queue_len"`
}

type solverInfo struct {
	Name   string            `json:"name"`
	Long   string            `json:"long"`
	Policy string            `json:"policy"`
	Kind   string            `json:"kind"`
	Cache  *SolverCacheStats `json:"cache,omitempty"`
}

type solversPayload struct {
	Solvers []solverInfo `json:"solvers"`
}

// RequestOptions is the JSON form of Options (times in milliseconds).
// It is exported (with BatchTopology) so the cluster's binary wire codec
// can decode a batch chunk straight into a BatchPayload without a JSON
// round trip.
type RequestOptions struct {
	TimeoutMS       int64 `json:"timeout_ms,omitempty"`
	NoCache         bool  `json:"no_cache,omitempty"`
	BoundNodes      int   `json:"bound_nodes,omitempty"`
	IncludeSolution bool  `json:"include_solution,omitempty"`
	// Objects carries the per-object vectors of a multi-object request
	// (solvers mo-greedy and lp-mo-rational / bound method mo-rational).
	Objects []ObjectVectors `json:"objects,omitempty"`
}

func (wo RequestOptions) options() Options {
	return Options{
		Timeout:         time.Duration(wo.TimeoutMS) * time.Millisecond,
		NoCache:         wo.NoCache,
		BoundNodes:      wo.BoundNodes,
		IncludeSolution: wo.IncludeSolution,
		Objects:         wo.Objects,
	}
}

// solveRequest is the /v1/solve and /v1/bound body. For /v1/bound the
// solver defaults to "refined" and names the bound method ("rational"
// or "refined"), qualified by the policy.
type solveRequest struct {
	Instance *core.Instance `json:"instance"`
	Solver   string         `json:"solver"`
	Policy   string         `json:"policy"`
	Options  RequestOptions `json:"options"`
}

func handleSolve(e *Engine, w http.ResponseWriter, r *http.Request, prefix string) {
	resp, status, err := e.SolveJSON(r.Context(), http.MaxBytesReader(nil, r.Body, maxBodyBytes), prefix)
	if err != nil {
		writeError(w, status, err)
		return
	}
	writeJSON(w, status, resp)
}

// SolveJSON decodes a /v1/solve body (or, with prefix "lp-", a
// /v1/bound one), validates it and runs it on the engine. status is the
// HTTP status of the outcome: 4xx for a request that would fail the
// same way on any engine (malformed, unknown solver), 5xx for a
// server-side fault. The cluster wire transport's solve frame carries
// the same body and maps the same status to fail-over or not.
func (e *Engine) SolveJSON(ctx context.Context, body io.Reader, prefix string) (resp *Response, status int, err error) {
	var req solveRequest
	if err := decodeStrict(body, &req); err != nil {
		return nil, http.StatusBadRequest, err
	}
	if req.Instance == nil {
		return nil, http.StatusBadRequest, errors.New("missing instance")
	}
	policy := core.Multiple
	if req.Policy != "" {
		p, ok := core.ParsePolicy(req.Policy)
		if !ok {
			return nil, http.StatusBadRequest, fmt.Errorf("unknown policy %q", req.Policy)
		}
		policy = p
	}
	solver := req.Solver
	if prefix != "" { // the /v1/bound shorthand
		if solver == "" {
			solver = "refined"
		}
		solver = prefix + solver
	} else if solver == "" {
		return nil, http.StatusBadRequest, errors.New("missing solver")
	}
	if err := validateObjects(e.Registry(), solver, policy, req.Instance, req.Options.Objects); err != nil {
		return nil, http.StatusBadRequest, err
	}
	resp, err = e.Solve(ctx, Request{
		Instance: req.Instance,
		Solver:   solver,
		Policy:   policy,
		Options:  req.Options.options(),
	})
	if err != nil {
		var unknown *ErrUnknownSolver
		switch {
		case errors.As(err, &unknown):
			return nil, http.StatusNotFound, err
		case errors.Is(err, context.DeadlineExceeded):
			return nil, http.StatusGatewayTimeout, err
		case errors.Is(err, ErrEngineClosed):
			return nil, http.StatusServiceUnavailable, err
		default:
			// Instance-shape problems were already rejected at decode time
			// (UnmarshalJSON fully validates), so what reaches here is a
			// server-side fault, not a bad request.
			return nil, http.StatusInternalServerError, err
		}
	}
	return resp, http.StatusOK, nil
}

// BatchTopology is the topology section of a /v1/batch body.
type BatchTopology struct {
	Parents  []int  `json:"parents"`
	IsClient []bool `json:"is_client"`
}

// BatchLine is one streamed NDJSON result line.
type BatchLine struct {
	Index int `json:"index"`
	*Response
	Error string `json:"error,omitempty"`
	// Raw, when set, is the already-encoded JSON object of everything
	// but the index — a successful Response as serialized by the worker
	// that computed it. The binary wire transport relays these bytes
	// through the coordinator untouched; AppendJSON splices the index in
	// textually, so the hot path never re-decodes a routed row.
	Raw []byte `json:"-"`
}

// AppendJSON appends the line's NDJSON form (no trailing newline) to
// buf. Raw lines are spliced — `{"index":N,` + the worker's bytes —
// which is byte-identical to marshaling the equivalent struct because
// both sides use encoding/json over the same Response type.
func (l *BatchLine) AppendJSON(buf []byte) ([]byte, error) {
	if len(l.Raw) > 0 && l.Error == "" {
		if l.Raw[0] != '{' || l.Raw[len(l.Raw)-1] != '}' {
			return buf, fmt.Errorf("service: malformed raw batch line (%d bytes)", len(l.Raw))
		}
		buf = append(buf, `{"index":`...)
		buf = strconv.AppendInt(buf, int64(l.Index), 10)
		if len(l.Raw) > 2 {
			buf = append(buf, ',')
			buf = append(buf, l.Raw[1:]...)
		} else {
			buf = append(buf, '}')
		}
		return buf, nil
	}
	data, err := json.Marshal(l)
	if err != nil {
		return buf, err
	}
	return append(buf, data...), nil
}

type batchDone struct {
	Done      bool    `json:"done"`
	Items     int     `json:"items"`
	Failed    int     `json:"failed"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

func (a *api) handleBatch(w http.ResponseWriter, r *http.Request) {
	e := a.e
	start := time.Now()
	req, err := readBatch(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Solver == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing solver"))
		return
	}
	if len(req.Variations) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("missing variations"))
		return
	}
	if len(req.Variations) > MaxBatchVariations {
		writeError(w, http.StatusBadRequest, fmt.Errorf("batch limited to %d variations, got %d",
			MaxBatchVariations, len(req.Variations)))
		return
	}
	// Full validation (topology interning, base vectors, solver/policy
	// resolution) before the status line is committed.
	base, policy, err := req.Build(e)
	if err != nil {
		var unknown *ErrUnknownSolver
		if errors.As(err, &unknown) {
			writeError(w, http.StatusNotFound, err)
		} else {
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	failed := 0
	var lineBuf []byte
	emit := func(line BatchLine) error {
		if line.Error != "" {
			failed++
		}
		buf, err := line.AppendJSON(lineBuf[:0])
		if err != nil {
			return err
		}
		lineBuf = append(buf, '\n')
		if _, err := w.Write(lineBuf); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}

	if router, ok := a.cluster.(BatchRouter); ok {
		// A coordinator routes the inline batch across its shards:
		// weighted chunks, lines streamed back in index order, and a
		// local-engine fallback for whatever the cluster cannot take —
		// a pool with every breaker open degrades to exactly the
		// standalone path. Mid-stream failures (the client went away,
		// the request context expired) are reported in-stream like the
		// campaign endpoint's.
		if err := router.RouteBatch(r.Context(), e, base, policy, req, emit); err != nil {
			enc.Encode(map[string]string{"error": err.Error()})
			return
		}
	} else {
		err = e.SolveBatch(r.Context(), BatchRequest{
			Base:       base,
			Solver:     req.Solver,
			Policy:     policy,
			Options:    req.Options.options(),
			Variations: req.Variations,
		}, func(item BatchItem) {
			line := BatchLine{Index: item.Index, Response: item.Response}
			if item.Err != nil {
				line.Error = item.Err.Error()
			}
			emit(line)
		})
		if err != nil {
			// SolveBatch re-validates cheaply; nothing can fail here that
			// Build did not already catch, but keep the belt-and-braces
			// in-stream report rather than a broken trailer.
			enc.Encode(map[string]string{"error": err.Error()})
			return
		}
	}
	enc.Encode(batchDone{
		Done:      true,
		Items:     len(req.Variations),
		Failed:    failed,
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
	})
}

// generateRequest is the /v1/generate body. Config uses the field names
// of gen.Config (e.g. {"Internal": 10, "Lambda": 0.5}).
type generateRequest struct {
	Config gen.Config `json:"config"`
	Seed   int64      `json:"seed"`
}

type generatePayload struct {
	Instance *core.Instance `json:"instance"`
	Load     float64        `json:"load"`
	Vertices int            `json:"vertices"`
}

func handleGenerate(w http.ResponseWriter, r *http.Request) {
	var req generateRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	in := gen.Instance(req.Config, req.Seed)
	writeJSON(w, http.StatusOK, generatePayload{Instance: in, Load: in.Load(), Vertices: in.Tree.Len()})
}

// campaignRequest is the /v1/campaign body. Config uses the field names
// of experiments.Config.
type campaignRequest struct {
	Config experiments.Config `json:"config"`
}

// campaignRow is one streamed NDJSON line.
type campaignRow struct {
	Lambda     float64            `json:"lambda"`
	Trees      int                `json:"trees"`
	LPSolvable int                `json:"lp_solvable"`
	BoundExact int                `json:"bound_exact"`
	Success    map[string]int     `json:"success"`
	RelCost    map[string]float64 `json:"rel_cost"`
}

type campaignDone struct {
	Done bool `json:"done"`
	Rows int  `json:"rows"`
}

func (a *api) handleCampaign(w http.ResponseWriter, r *http.Request) {
	// An inline campaign monopolizes the whole machine for its duration,
	// so concurrent streams are capped instead of queued unboundedly:
	// saturated slots answer 503 with a Retry-After hint. Big runs
	// should be submitted as async jobs (POST /v1/jobs) — those are
	// scheduled, persisted and resumable.
	if a.campaignSem != nil {
		select {
		case a.campaignSem <- struct{}{}:
			defer func() { <-a.campaignSem }()
		default:
			w.Header().Set("Retry-After", strconv.Itoa(campaignRetryAfter))
			writeError(w, http.StatusServiceUnavailable, errors.New(
				"all inline campaign slots are busy; retry later or submit via POST /v1/jobs"))
			return
		}
	}
	var req campaignRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	cfg := req.Config
	// Cancellation applies mid-λ too: the per-tree bound computations
	// observe the request context between branch-and-bound nodes.
	cfg.Context = r.Context()
	rows := 0
	cfg.Progress = func(row experiments.Row) error {
		// Abort between λ values once the client is gone (or the stream
		// write fails) — a disconnected campaign must not keep burning
		// every core to completion.
		if err := r.Context().Err(); err != nil {
			return err
		}
		rows++
		if err := enc.Encode(campaignRow{
			Lambda:     row.Lambda,
			Trees:      row.Trees,
			LPSolvable: row.LPSolvable,
			BoundExact: row.BoundExact,
			Success:    row.Success,
			RelCost:    row.RelCost,
		}); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	if _, err := experiments.Run(cfg); err != nil {
		// Headers are already out; report the failure in-stream.
		enc.Encode(map[string]string{"error": err.Error()})
		return
	}
	enc.Encode(campaignDone{Done: true, Rows: rows})
}

func decodeJSON(r *http.Request, v any) error {
	return decodeStrict(http.MaxBytesReader(nil, r.Body, maxBodyBytes), v)
}

func decodeStrict(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeError answers {"error": ..., "trace_id": ...}. The trace ID is
// read back from the response header the instrument middleware set, so
// every error body names the ID the client can quote when reporting it
// (and that the server logged the request under).
func writeError(w http.ResponseWriter, status int, err error) {
	body := map[string]string{"error": err.Error()}
	if id := w.Header().Get(obs.TraceHeader); id != "" {
		body["trace_id"] = id
	}
	writeJSON(w, status, body)
}
