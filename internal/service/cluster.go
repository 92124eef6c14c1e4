package service

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// ShardStat is one shard's snapshot as reported on /healthz and
// /metrics. The type lives here rather than in internal/cluster because
// the dependency points the other way: cluster implements the service
// Backend contract (and this one), while the HTTP layer stays ignorant
// of how shards are managed.
type ShardStat struct {
	// Addr is the shard's base URL.
	Addr string `json:"addr"`
	// State is the circuit-breaker position: "closed" (healthy),
	// "open" (failing, traffic suspended) or "half-open" (probing).
	State string `json:"state"`
	// Healthy is true when State is "closed".
	Healthy bool `json:"healthy"`
	// Weight is the shard's placement weight (typically its solver
	// goroutine count, self-reported on /v1/worker/ping or set at
	// registration). The weighted picker hands out work proportionally.
	Weight int `json:"weight"`
	// InFlight is the number of requests on the shard right now.
	InFlight int `json:"in_flight"`
	// Requests/Failures count attempts and transient failures against
	// this shard; Failovers counts requests that were re-run elsewhere
	// after failing here.
	Requests  uint64 `json:"requests"`
	Failures  uint64 `json:"failures"`
	Failovers uint64 `json:"failovers"`
	// WireIdle is the number of idle pooled wire-transport connections
	// parked for this shard (rp_cluster_wire_idle_conns).
	WireIdle int `json:"wire_idle_conns"`
}

// ClusterStats are pool-level counters beyond the per-shard ones.
type ClusterStats struct {
	// Epoch increments on every membership change (join, leave, file
	// reload). Long-running jobs watch it to notice joins mid-run.
	Epoch uint64 `json:"epoch"`
	// BatchesRouted counts inline /v1/batch requests fanned out over
	// the shards; RowsRouted the variations computed remotely by them;
	// RowsLocalFallback the variations computed on the coordinator
	// because no shard could (breakers open, pool empty or drained).
	BatchesRouted     uint64 `json:"batches_routed"`
	RowsRouted        uint64 `json:"rows_routed"`
	RowsLocalFallback uint64 `json:"rows_local_fallback"`
	// BatchCacheShortCircuits counts routed-batch variations served from
	// the coordinator's caches (engine solution cache or the routed-row
	// cache) without a shard round trip.
	BatchCacheShortCircuits uint64 `json:"batch_cache_short_circuits"`
	// ShardsExpired counts file-/registration-origin members removed by
	// stale-shard expiry (PoolOptions.ExpireAfter missed probes).
	ShardsExpired uint64 `json:"shards_expired"`
	// WireConnections counts binary transport connections dialed;
	// WireRequests the solves, batch chunks and campaign rows shipped
	// over them; WireRows the row frames relayed back.
	WireConnections uint64 `json:"wire_connections"`
	WireRequests    uint64 `json:"wire_requests"`
	WireRows        uint64 `json:"wire_rows"`
}

// ClusterInfo is what the HTTP layer needs from a shard pool to report
// cluster health. *cluster.Pool implements it.
type ClusterInfo interface {
	ShardStats() []ShardStat
}

// ClusterMembership extends ClusterInfo with dynamic join/leave — the
// contract behind POST/DELETE /v1/cluster/shards. *cluster.Pool
// implements it; the HTTP layer answers 501 for pools that don't.
type ClusterMembership interface {
	ClusterInfo
	// AddShard joins (or, for a known address, re-weights) a shard.
	// weight <= 0 selects the default (1, refreshed by the next ping).
	// The bool reports whether the address was new.
	AddShard(addr string, weight int) (ShardStat, bool, error)
	// RemoveShard leaves a shard; in-flight requests on it finish (or
	// fail over) normally. The bool reports whether it was a member.
	RemoveShard(addr string) bool
	// Epoch is the current membership epoch.
	Epoch() uint64
}

// ClusterStatsProvider is implemented by pools that track pool-level
// counters for /healthz and /metrics.
type ClusterStatsProvider interface {
	ClusterStats() ClusterStats
}

// ClusterHistograms is a snapshot of a pool's latency distributions,
// rendered on /metrics as the rp_cluster_*_seconds histogram families.
type ClusterHistograms struct {
	// ShardRTT is the round-trip time of shard HTTP requests, per shard
	// base URL.
	ShardRTT map[string]obs.HistogramSnapshot
	// BatchChunk is the dispatch-to-response time of routed inline batch
	// chunks; ReorderWait the time completed lines sat in the reorder
	// buffer waiting for earlier indices before streaming to the client.
	BatchChunk  obs.HistogramSnapshot
	ReorderWait obs.HistogramSnapshot
}

// ClusterLatencies is implemented by pools that track latency
// histograms for /metrics.
type ClusterLatencies interface {
	ClusterHistograms() ClusterHistograms
}

// ShardExposition is one shard's last successfully scraped-and-parsed
// /metrics exposition, as cached by the pool's probe loop for the
// federated GET /v1/cluster/metrics view.
type ShardExposition struct {
	// Addr is the shard's base URL — the value of the `shard` label
	// stamped on every series federated from it.
	Addr string
	// Age is how old the scrape is.
	Age time.Duration
	// Families is the parsed exposition, keyed by family name.
	Families map[string]*obs.Family
}

// MetricsFederator is implemented by pools whose probe loop scrapes
// shard /metrics endpoints. FederatedExpositions returns the current
// per-shard caches, live members only, stale scrapes already aged out.
type MetricsFederator interface {
	FederatedExpositions() []ShardExposition
}

// BatchRouter is implemented by pools that can execute an inline
// /v1/batch request across their shards. The handler prefers it over
// the local engine whenever the daemon fronts a cluster; base and
// policy are the caller's already-validated req.Build(e) results (the
// handler needs them for its pre-stream status codes anyway, and the
// router must not pay for a second build). deliver is called with
// lines in request (index) order, and implementations fall back to
// computing on the engine locally for whatever the shards cannot take,
// so a coordinator with every worker down still answers.
type BatchRouter interface {
	RouteBatch(ctx context.Context, e *Engine, base *core.Instance, policy core.Policy, req *BatchPayload, deliver func(BatchLine) error) error
}
