// Package cluster turns the single-process placement daemon into a
// sharded multi-process system. Every coordinator→worker exchange —
// @remote solves, batch chunks, campaign rows — rides one transport:
// rp-wire/2 (package wire), a binary framing protocol over persistent
// connections that every rpserve/rpworker process upgrades to on
// GET /v1/wire. Plain HTTP is left for health pings
// (/v1/worker/ping), federation scrapes (/metrics) and worker
// self-registration.
//
// The pieces, bottom up:
//
//   - Pool: a dynamic set of worker shards with per-shard bounded
//     in-flight requests, a circuit breaker per shard
//     (closed → open → half-open, driven by request outcomes and a
//     background ping prober), and retry-with-failover that re-runs
//     idempotent work on a healthy shard when one dies mid-call.
//
//   - RegisterRemote: registers a "<name>@remote" service.Backend for
//     every solver in a registry, proxying the computation through the
//     pool. Because it implements the ordinary Backend signature, the
//     engine's cache, single-flight de-duplication, validation and
//     metrics apply to remote results unchanged.
//
//   - Pool.RouteBatch: one batch fanned out over the shards in weighted
//     chunks, after a probe of the coordinator's caches, with lines
//     re-indexed and delivered in request order and a local-engine
//     fallback for whatever no shard takes. Inline /v1/batch requests
//     and batch jobs (service.BatchJobKind with the pool as its
//     router) both run through it.
//
//   - CampaignKind: the distributed replacement for the local campaign
//     job kind. It partitions λ row indices across shards, persists
//     every completed row keyed by its absolute index, and on resume
//     (daemon restart) or shard death resubmits only the missing rows.
//     Campaign rows are computed remotely via experiments.Config's
//     StartRow/EndRow slicing, whose generation seeds are tied to the
//     absolute row index: a row is bit-identical no matter which shard
//     computes it, or whether it is computed at all remotely — the
//     merged result of a sharded run equals a single-process run.
//
// Everything is deterministic in the job spec, so the checkpoint
// semantics match the single-process manager exactly: the append-only
// row log is authoritative, and re-running never recomputes a
// checkpointed row.
package cluster
