package service

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// processStart pins the daemon's start instant for the
// rp_start_time_seconds / rp_uptime_seconds gauges — alert math wants
// to know how long the process has been collecting, and federation
// freshness checks want a per-shard epoch.
var processStart = time.Now()

// handleMetrics serves the engine counters (and, when a job manager is
// attached, the job-state gauges) in the Prometheus text exposition
// format. The writer is hand-rolled — the format is four line shapes —
// so the daemon stays dependency-free.
func (a *api) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	a.renderMetrics(&buf)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes())
}

// renderMetrics writes the full local exposition into buf. It is the
// body of GET /metrics, and the federation endpoint reuses it so the
// coordinator's own series appear in the merged cluster view.
func (a *api) renderMetrics(buf *bytes.Buffer) {
	p := promWriter{buf}
	st := a.e.Stats()

	p.family("rp_build_info", "gauge", "Build metadata; the value is always 1.")
	p.sample("rp_build_info",
		`version="`+labelEscaper.Replace(buildVersion())+`",go_version="`+labelEscaper.Replace(runtime.Version())+`"`, 1)

	p.family("rp_start_time_seconds", "gauge", "Unix time the process started.")
	p.sample("rp_start_time_seconds", "", float64(processStart.UnixNano())/1e9)
	p.family("rp_uptime_seconds", "gauge", "Seconds since the process started.")
	p.sample("rp_uptime_seconds", "", time.Since(processStart).Seconds())

	p.family("rp_engine_requests_total", "counter", "Solve requests accepted by the engine.")
	p.sample("rp_engine_requests_total", "", float64(st.Requests))
	p.family("rp_engine_computations_total", "counter", "Backend computations actually run (cache misses).")
	p.sample("rp_engine_computations_total", "", float64(st.Computations))
	p.family("rp_engine_errors_total", "counter", "Requests that finished with an error.")
	p.sample("rp_engine_errors_total", "", float64(st.Errors))
	p.family("rp_engine_workers", "gauge", "Solver worker goroutines.")
	p.sample("rp_engine_workers", "", float64(st.Workers))
	p.family("rp_engine_in_flight", "gauge", "Computations running right now.")
	p.sample("rp_engine_in_flight", "", float64(st.InFlight))
	p.family("rp_engine_queue_depth", "gauge", "Jobs waiting in the worker-pool queue.")
	p.sample("rp_engine_queue_depth", "", float64(st.QueueLen))
	p.family("rp_engine_queue_capacity", "gauge", "Worker-pool queue capacity before backpressure.")
	p.sample("rp_engine_queue_capacity", "", float64(st.QueueCap))

	p.family("rp_cache_hits_total", "counter", "Solution-cache hits (completed entries plus coalesced waits).")
	p.sample("rp_cache_hits_total", "", float64(st.CacheHits))
	p.family("rp_cache_misses_total", "counter", "Solution-cache misses (owned computations).")
	p.sample("rp_cache_misses_total", "", float64(st.CacheMisses))
	p.family("rp_cache_evictions_total", "counter", "Solution-cache evictions by reason.")
	p.sample("rp_cache_evictions_total", `reason="lru"`, float64(st.Evictions))
	p.sample("rp_cache_evictions_total", `reason="bytes"`, float64(st.ByteEvictions))
	p.sample("rp_cache_evictions_total", `reason="ttl"`, float64(st.TTLEvictions))
	p.family("rp_cache_entries", "gauge", "Retained solution-cache entries.")
	p.sample("rp_cache_entries", "", float64(st.CacheEntries))
	p.family("rp_cache_bytes", "gauge", "Approximate footprint of retained results.")
	p.sample("rp_cache_bytes", "", float64(st.CacheBytes))

	p.family("rp_tree_cache_hits_total", "counter", "Interned-topology cache hits.")
	p.sample("rp_tree_cache_hits_total", "", float64(st.TreeCacheHits))
	p.family("rp_tree_cache_misses_total", "counter", "Interned-topology cache misses.")
	p.sample("rp_tree_cache_misses_total", "", float64(st.TreeCacheMisses))
	p.family("rp_tree_cache_entries", "gauge", "Interned preprocessed trees.")
	p.sample("rp_tree_cache_entries", "", float64(st.TreeCacheEntries))

	solvers := make([]string, 0, len(st.PerSolver))
	for name := range st.PerSolver {
		solvers = append(solvers, name)
	}
	sort.Strings(solvers)
	p.family("rp_solver_cache_hits_total", "counter", "Per-solver solution-cache hits on completed entries.")
	for _, name := range solvers {
		p.sample("rp_solver_cache_hits_total", solverLabel(name), float64(st.PerSolver[name].Hits))
	}
	p.family("rp_solver_cache_misses_total", "counter", "Per-solver solution-cache misses.")
	for _, name := range solvers {
		p.sample("rp_solver_cache_misses_total", solverLabel(name), float64(st.PerSolver[name].Misses))
	}
	p.family("rp_solver_cache_coalesced_total", "counter", "Per-solver waits coalesced onto an in-flight computation.")
	for _, name := range solvers {
		p.sample("rp_solver_cache_coalesced_total", solverLabel(name), float64(st.PerSolver[name].Coalesced))
	}

	solveHist, queueHist := a.e.SolveHistograms()
	p.family("rp_engine_solve_seconds", "histogram", "Backend compute time per solver (excludes queue wait).")
	p.histogramVec("rp_engine_solve_seconds", "solver", solveHist)
	p.family("rp_engine_queue_wait_seconds", "histogram", "Time a request waited for a solver worker slot, per solver.")
	p.histogramVec("rp_engine_queue_wait_seconds", "solver", queueHist)

	// HTTP-layer RED metrics: coarse mux routes only, so label
	// cardinality is bounded by the route table.
	red := a.red.snapshot()
	routes := make([]string, 0, len(red))
	for route := range red {
		routes = append(routes, route)
	}
	sort.Strings(routes)
	p.family("rp_http_requests_total", "counter", "HTTP requests by coarse route pattern and status code.")
	for _, route := range routes {
		codes := make([]int, 0, len(red[route]))
		for code := range red[route] {
			codes = append(codes, code)
		}
		sort.Ints(codes)
		for _, code := range codes {
			p.sample("rp_http_requests_total",
				`route="`+labelEscaper.Replace(route)+`",code="`+statusCodeLabel(code)+`"`,
				float64(red[route][code]))
		}
	}
	p.family("rp_http_request_seconds", "histogram", "HTTP request latency by coarse route pattern.")
	p.histogramVec("rp_http_request_seconds", "route", a.red.latency.Snapshot())

	if a.slo != nil {
		slo := a.slo.Evaluate()
		p.family("rp_slo_error_budget_remaining", "gauge", "Unspent fraction of the objective's error budget over the accounting window (1 = untouched, <= 0 = exhausted).")
		for _, o := range slo.Objectives {
			p.sample("rp_slo_error_budget_remaining", `objective="`+labelEscaper.Replace(o.Name)+`"`, o.BudgetRemaining)
		}
		p.family("rp_slo_burn_rate", "gauge", "Error-budget burn rate per objective and lookback window (1 = spending exactly the budget).")
		for _, o := range slo.Objectives {
			windows := make([]string, 0, len(o.Burn))
			for w := range o.Burn {
				windows = append(windows, w)
			}
			sort.Strings(windows)
			for _, w := range windows {
				p.sample("rp_slo_burn_rate",
					`objective="`+labelEscaper.Replace(o.Name)+`",window="`+labelEscaper.Replace(w)+`"`,
					o.Burn[w])
			}
		}
		p.family("rp_slo_alerts_firing", "gauge", "Burn-rate alerts currently firing.")
		p.sample("rp_slo_alerts_firing", "", float64(len(slo.Firing)))
	}

	if a.events != nil {
		counts := a.events.Counts()
		types := make([]string, 0, len(counts))
		for t := range counts {
			types = append(types, t)
		}
		sort.Strings(types)
		p.family("rp_cluster_events_total", "counter", "Cluster events journaled, by type.")
		for _, t := range types {
			p.sample("rp_cluster_events_total", `type="`+labelEscaper.Replace(t)+`"`, float64(counts[t]))
		}
	}

	rt := obs.ReadGoRuntime()
	p.family("rp_go_goroutines", "gauge", "Live goroutines in the process.")
	p.sample("rp_go_goroutines", "", float64(rt.Goroutines))
	p.family("rp_go_heap_bytes", "gauge", "Bytes of live heap objects.")
	p.sample("rp_go_heap_bytes", "", float64(rt.HeapBytes))
	p.family("rp_go_gc_pause_seconds", "histogram", "Cumulative GC stop-the-world pause distribution.")
	p.histogram("rp_go_gc_pause_seconds", "", rt.GCPause)

	if a.spans != nil {
		added, dropped := a.spans.Stats()
		p.family("rp_obs_spans_recorded_total", "counter", "Spans recorded into the flight recorder.")
		p.sample("rp_obs_spans_recorded_total", "", float64(added))
		p.family("rp_obs_spans_dropped_total", "counter", "Spans dropped because the flight recorder was contended.")
		p.sample("rp_obs_spans_dropped_total", "", float64(dropped))
	}

	if js := a.jobStats(); js != nil {
		p.family("rp_jobs", "gauge", "Async jobs by state.")
		for _, s := range []struct {
			state string
			n     int
		}{
			{"queued", js.Queued},
			{"running", js.Running},
			{"succeeded", js.Succeeded},
			{"failed", js.Failed},
			{"canceled", js.Canceled},
			{"interrupted", js.Interrupted},
		} {
			p.sample("rp_jobs", `state="`+s.state+`"`, float64(s.n))
		}
		p.family("rp_job_workers", "gauge", "Concurrent job slots.")
		p.sample("rp_job_workers", "", float64(js.Workers))
		p.family("rp_job_queue_depth", "gauge", "Jobs waiting for a job slot.")
		p.sample("rp_job_queue_depth", "", float64(js.QueueLen))
		p.family("rp_jobs_pruned_total", "counter", "Finished jobs removed by age-based retention.")
		p.sample("rp_jobs_pruned_total", "", float64(js.Pruned))
		p.family("rp_jobs_duration_seconds", "histogram", "Wall time of terminal jobs (started to finished).")
		p.histogram("rp_jobs_duration_seconds", "", a.jobs.Durations())
	}

	if a.sessions != nil {
		ss := a.sessions.Stats()
		p.family("rp_sessions", "gauge", "Live placement sessions.")
		p.sample("rp_sessions", "", float64(ss.Live))
		p.family("rp_session_watchers", "gauge", "Watchers attached across all placement sessions.")
		p.sample("rp_session_watchers", "", float64(ss.Watchers))
		p.family("rp_sessions_created_total", "counter", "Placement sessions registered.")
		p.sample("rp_sessions_created_total", "", float64(ss.Created))
		p.family("rp_sessions_deleted_total", "counter", "Placement sessions deleted by request.")
		p.sample("rp_sessions_deleted_total", "", float64(ss.Deleted))
		p.family("rp_sessions_expired_total", "counter", "Placement sessions expired by the idle TTL.")
		p.sample("rp_sessions_expired_total", "", float64(ss.Expired))
		p.family("rp_session_deltas_total", "counter", "Delta batches applied across all placement sessions.")
		p.sample("rp_session_deltas_total", "", float64(ss.Deltas))
		p.family("rp_session_ops_total", "counter", "Individual delta operations applied.")
		p.sample("rp_session_ops_total", "", float64(ss.Ops))
		p.family("rp_session_solves_total", "counter", "Re-solves triggered by deltas, by mode.")
		p.sample("rp_session_solves_total", `mode="incremental"`, float64(ss.IncrementalSolves))
		p.sample("rp_session_solves_total", `mode="full"`, float64(ss.FullSolves))
		p.family("rp_session_apply_seconds", "histogram", "Delta batch apply latency (validate, re-solve, diff).")
		p.histogram("rp_session_apply_seconds", "", ss.Apply)
	}

	if a.cluster != nil {
		if cs := a.clusterStats(); cs != nil {
			p.family("rp_cluster_epoch", "gauge", "Shard membership epoch (increments on join/leave/re-weight).")
			p.sample("rp_cluster_epoch", "", float64(cs.Epoch))
			p.family("rp_cluster_batches_routed_total", "counter", "Routed batches (inline and job runs) fanned out over the shards.")
			p.sample("rp_cluster_batches_routed_total", "", float64(cs.BatchesRouted))
			p.family("rp_cluster_batch_rows_routed_total", "counter", "Routed batch variations computed on shards.")
			p.sample("rp_cluster_batch_rows_routed_total", "", float64(cs.RowsRouted))
			p.family("rp_cluster_batch_rows_local_total", "counter", "Routed batch variations computed locally because no shard could take them.")
			p.sample("rp_cluster_batch_rows_local_total", "", float64(cs.RowsLocalFallback))
			p.family("rp_cluster_batch_cache_short_circuit_total", "counter", "Routed batch variations served from the coordinator's caches without a shard round trip.")
			p.sample("rp_cluster_batch_cache_short_circuit_total", "", float64(cs.BatchCacheShortCircuits))
			p.family("rp_cluster_shards_expired_total", "counter", "Shards removed by stale-shard expiry (consecutive missed probes).")
			p.sample("rp_cluster_shards_expired_total", "", float64(cs.ShardsExpired))
			p.family("rp_cluster_wire_connections_total", "counter", "Binary wire transport connections dialed to shards.")
			p.sample("rp_cluster_wire_connections_total", "", float64(cs.WireConnections))
			p.family("rp_cluster_wire_requests_total", "counter", "Remote solves, batch chunks and campaign rows shipped over the binary wire transport.")
			p.sample("rp_cluster_wire_requests_total", "", float64(cs.WireRequests))
			p.family("rp_cluster_wire_rows_total", "counter", "Row frames relayed back over the binary wire transport.")
			p.sample("rp_cluster_wire_rows_total", "", float64(cs.WireRows))
		}
		shards := a.cluster.ShardStats()
		p.family("rp_cluster_shard_up", "gauge", "1 when the shard's circuit is closed (healthy).")
		for _, s := range shards {
			up := 0.0
			if s.Healthy {
				up = 1
			}
			p.sample("rp_cluster_shard_up", shardLabel(s.Addr), up)
		}
		p.family("rp_cluster_shard_weight", "gauge", "Placement weight of the shard (self-reported capacity).")
		for _, s := range shards {
			p.sample("rp_cluster_shard_weight", shardLabel(s.Addr), float64(s.Weight))
		}
		p.family("rp_cluster_shard_in_flight", "gauge", "Requests on the shard right now.")
		for _, s := range shards {
			p.sample("rp_cluster_shard_in_flight", shardLabel(s.Addr), float64(s.InFlight))
		}
		p.family("rp_cluster_shard_requests_total", "counter", "Requests attempted against the shard.")
		for _, s := range shards {
			p.sample("rp_cluster_shard_requests_total", shardLabel(s.Addr), float64(s.Requests))
		}
		p.family("rp_cluster_shard_failures_total", "counter", "Transient failures observed on the shard.")
		for _, s := range shards {
			p.sample("rp_cluster_shard_failures_total", shardLabel(s.Addr), float64(s.Failures))
		}
		p.family("rp_cluster_shard_failovers_total", "counter", "Requests re-run on another shard after failing here.")
		for _, s := range shards {
			p.sample("rp_cluster_shard_failovers_total", shardLabel(s.Addr), float64(s.Failovers))
		}
		p.family("rp_cluster_wire_idle_conns", "gauge", "Idle pooled wire-transport connections to the shard.")
		for _, s := range shards {
			p.sample("rp_cluster_wire_idle_conns", shardLabel(s.Addr), float64(s.WireIdle))
		}
		if lat, ok := a.cluster.(ClusterLatencies); ok {
			h := lat.ClusterHistograms()
			p.family("rp_cluster_shard_rtt_seconds", "histogram", "Round-trip time of shard requests, per shard.")
			p.histogramVec("rp_cluster_shard_rtt_seconds", "shard", h.ShardRTT)
			p.family("rp_cluster_batch_chunk_seconds", "histogram", "Dispatch-to-response time of routed inline batch chunks.")
			p.histogram("rp_cluster_batch_chunk_seconds", "", h.BatchChunk)
			p.family("rp_cluster_batch_reorder_wait_seconds", "histogram", "Time completed batch lines waited in the reorder buffer before streaming.")
			p.histogram("rp_cluster_batch_reorder_wait_seconds", "", h.ReorderWait)
		}
	}
}

// promWriter emits the Prometheus text exposition format.
type promWriter struct{ buf *bytes.Buffer }

func (p promWriter) family(name, typ, help string) {
	fmt.Fprintf(p.buf, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (p promWriter) sample(name, labels string, v float64) {
	p.buf.WriteString(name)
	if labels != "" {
		p.buf.WriteByte('{')
		p.buf.WriteString(labels)
		p.buf.WriteByte('}')
	}
	p.buf.WriteByte(' ')
	p.buf.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	p.buf.WriteByte('\n')
}

// histogram renders one histogram series in exposition form: cumulative
// le buckets ending at +Inf, then _sum and _count. labels is the
// series' non-le label pairs ("" for an unlabeled family).
func (p promWriter) histogram(name, labels string, s obs.HistogramSnapshot) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for i, b := range s.Bounds {
		cum += s.Counts[i]
		p.sample(name+"_bucket", labels+sep+`le="`+strconv.FormatFloat(b, 'g', -1, 64)+`"`, float64(cum))
	}
	cum += s.Counts[len(s.Bounds)]
	p.sample(name+"_bucket", labels+sep+`le="+Inf"`, float64(cum))
	p.sample(name+"_sum", labels, s.Sum)
	p.sample(name+"_count", labels, float64(cum))
}

// histogramVec renders every series of a labeled histogram family in
// sorted label order. The caller has already emitted the family header.
func (p promWriter) histogramVec(name, labelName string, series map[string]obs.HistogramSnapshot) {
	keys := make([]string, 0, len(series))
	for k := range series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		p.histogram(name, labelName+`="`+labelEscaper.Replace(k)+`"`, series[k])
	}
}

// buildVersion resolves the binary's version once: the VCS revision
// when the build embedded one, else the module version, else "unknown".
var buildVersion = sync.OnceValue(func() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" && s.Value != "" {
			if len(s.Value) > 12 {
				return s.Value[:12]
			}
			return s.Value
		}
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		return v
	}
	return "unknown"
})

// solverLabel renders a solver="..." label pair with the value escaped
// per the exposition format (registry names are tame, but a custom
// registered backend could carry anything).
func solverLabel(name string) string {
	return `solver="` + labelEscaper.Replace(name) + `"`
}

// shardLabel renders a shard="..." label pair, escaped likewise.
func shardLabel(addr string) string {
	return `shard="` + labelEscaper.Replace(addr) + `"`
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
