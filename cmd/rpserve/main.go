// Command rpserve runs the replica-placement engine as a long-running
// HTTP daemon: concurrent solves over every registered solver (exact,
// heuristics, MixedBest, QoS/bandwidth variants), LP bounds, seeded
// instance generation, streamed experiment campaigns and persistent
// async campaign/batch jobs, with a keyed solution cache in front of
// the worker pool.
//
// Usage:
//
//	rpserve -addr :8080 -workers 8 -cache 4096 -timeout 60s \
//	        -jobs-dir /var/lib/rpserve/jobs -job-workers 2 -job-ttl 24h
//
// Cluster modes:
//
//	rpserve -worker -addr :8081 [-register http://coord:8080]
//	    run as a worker shard: the solve surface plus /v1/worker/ping,
//	    no job manager, unbounded inline campaigns (the coordinator's
//	    pool is the admission controller). Equivalent to rpworker.
//	    With -register, the worker joins the coordinator's pool itself
//	    (POST /v1/cluster/shards), re-registers on a heartbeat, and
//	    deregisters on graceful shutdown.
//
//	rpserve -shards host:8081,host:8082 -jobs-dir ./jobs
//	rpserve -shards-file ./shards.txt -jobs-dir ./jobs
//	rpserve -coordinator -jobs-dir ./jobs
//	    run as a coordinator over worker shards: every solver gains an
//	    "<name>@remote" twin proxied through the shard pool (health
//	    probing, circuit breaking, bounded in-flight, weighted
//	    placement, failover), inline /v1/batch requests are fanned out
//	    over the shards (falling back to local execution when none can
//	    take them), and campaign/batch jobs are executed sharded — λ
//	    rows / variation indices are partitioned across the workers,
//	    merged into the same append-only row log, and byte-identical
//	    to a single-process run. If a worker dies mid-job, only its
//	    missing rows are resubmitted to the remaining shards.
//
//	    Membership is dynamic: besides the static -shards list, shards
//	    join/leave via POST/DELETE /v1/cluster/shards at runtime, and
//	    -shards-file ("addr [weight]" per line) is re-read on SIGHUP
//	    and every -shards-reload. -coordinator starts with an empty
//	    pool that self-registering workers fill.
//
// Endpoints (all JSON):
//
//	GET  /healthz      liveness + engine counters (+ per-shard health)
//	GET  /metrics      the same counters in Prometheus text format
//	GET  /v1/solvers   solver registry listing with cache counters
//	POST /v1/solve     {"instance": ..., "solver": "MB"}
//	POST /v1/bound     {"instance": ..., "solver": "refined", "policy": "Multiple"}
//	POST /v1/batch     {"topology": ..., "solver": ..., "base": ..., "variations": [...]}
//	                   (one tree, N parameter vectors; streams NDJSON results)
//	POST /v1/generate  {"config": {"Internal": 10, "Lambda": 0.5}, "seed": 7}
//	POST /v1/campaign  {"config": {"TreesPerLambda": 10}}   (streams NDJSON rows;
//	                   503 + Retry-After when its inline slots are saturated)
//	POST /v1/jobs      {"campaign": {...}} | {"batch": {...}}  (async, 202 + job id)
//	GET  /v1/jobs      list jobs (?limit=&after= paginates with a "next" cursor)
//	GET  /v1/jobs/{id}[/result] and DELETE /v1/jobs/{id}
//	GET  /v1/worker/ping  lightweight liveness probe for shard pools
//	GET  /v1/cluster/metrics  one merged Prometheus exposition for the
//	                   whole cluster (coordinator modes; every series
//	                   carries a shard label)
//	GET  /v1/alerts    SLO verdict, budgets, burn rates, firing alerts
//	GET  /debug/events cluster event journal (?type=&since=&limit=)
//
// With -jobs-dir, jobs are persisted (manifest + append-only row log
// per job) and survive restarts: a job interrupted by shutdown resumes
// from its last completed row when the daemon comes back. -job-ttl
// prunes finished jobs once they are older than the given age.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener stops,
// running jobs checkpoint (resumable on restart), and queued plus
// in-flight solves drain within -drain.
//
// Observability: logs are structured (-log-format text|json, -log-level
// debug|info|warn|error) and every request-scoped line carries the
// request's trace ID (X-RP-Trace-Id, generated when absent). Requests
// slower than -slow-request are logged at warn. -pprof mounts
// net/http/pprof under /debug/pprof/ (off by default).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/wire"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/session"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 0, "solver goroutines (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 0, "job queue depth before backpressure (0 = 4x workers)")
		cache        = flag.Int("cache", 4096, "cached results (negative disables retention)")
		cacheBytes   = flag.Int64("cache-bytes", 0, "approximate cache footprint limit in bytes (0 = unlimited)")
		cacheTTL     = flag.Duration("cache-ttl", 0, "cached result lifetime (0 = never expires)")
		timeout      = flag.Duration("timeout", 60*time.Second, "default per-job deadline")
		drain        = flag.Duration("drain", 30*time.Second, "graceful shutdown budget")
		jobsDir      = flag.String("jobs-dir", "", "directory for persistent async jobs (empty = in-memory, jobs die with the process)")
		jobWorkers   = flag.Int("job-workers", 2, "concurrently running async jobs")
		jobTTL       = flag.Duration("job-ttl", 0, "prune finished jobs older than this age (0 = keep until DELETE)")
		campaigns    = flag.Int("campaigns", 0, "concurrent inline /v1/campaign streams (0 = default 2, negative = unlimited)")
		worker       = flag.Bool("worker", false, "run as a worker shard: solve surface only, no jobs, unbounded campaigns")
		shards       = flag.String("shards", "", "comma-separated worker addresses (host:port); enables coordinator mode")
		shardsFile   = flag.String("shards-file", "", "file with one \"addr [weight]\" per line; re-read on SIGHUP and every -shards-reload; enables coordinator mode")
		shardsReload = flag.Duration("shards-reload", 30*time.Second, "periodic -shards-file reload interval (0 = SIGHUP only)")
		coordinator  = flag.Bool("coordinator", false, "coordinator mode with an initially empty pool (workers join via POST /v1/cluster/shards or -register)")
		shardConc    = flag.Int("shard-inflight", 0, "max in-flight requests per shard weight unit (0 = default 4)")
		shardExpire  = flag.Int("shard-expire", 0, "expire file-/API-registered shards after this many consecutive failed health probes (0 = never)")
		routeCache   = flag.Int("route-cache", 0, "routed batch rows memoized on the coordinator (0 = default 4096, negative disables)")
		routeCacheB  = flag.Int64("route-cache-bytes", 0, "approximate byte bound of the routed-row cache (0 = default 256 MiB, negative removes the bound)")
		clusterSec   = flag.String("cluster-secret", "", "shared secret: required on POST/DELETE /v1/cluster/shards here, and presented when self-registering (empty = open)")
		register     = flag.String("register", "", "worker mode: coordinator URL to self-register with (heartbeat re-registers, graceful shutdown deregisters)")
		advertise    = flag.String("advertise", "", "worker mode: address the coordinator dials back (default derived from -addr)")
		registerInt  = flag.Duration("register-interval", 10*time.Second, "worker mode: self-registration heartbeat period")
		logFormat    = flag.String("log-format", "text", "log output format: text or json")
		logLevel     = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
		slowReq      = flag.Duration("slow-request", 0, "log requests slower than this at warn level (0 = disabled)")
		pprofOn      = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		traceSample  = flag.Float64("trace-sample", 1.0, "fraction of requests recording span traces (slow requests are always retained)")
		traceBuffer  = flag.Int("trace-buffer", obs.DefaultSpanCapacity, "spans held in the in-process flight recorder (0 = default, negative disables tracing)")
		eventBuffer  = flag.Int("event-buffer", obs.DefaultEventCapacity, "cluster events held in the in-process journal at /debug/events (0 = default, negative disables)")
		sessionsMax  = flag.Int("sessions", 0, "max live placement sessions under /v1/instances (0 = default 1024, negative disables sessions)")
		sessionTTL   = flag.Duration("session-ttl", 0, "expire placement sessions idle longer than this (0 = never; sessions with watchers don't expire)")
		sloAvail     = flag.Float64("slo-availability", 0, "availability objective as a success ratio, e.g. 0.999 (0 disables the availability SLO)")
		sloLatency   = flag.Duration("slo-latency-p99", 0, "latency objective: 99% of SLO-counted requests finish within this duration (0 disables the latency SLO)")
		sloWindow    = flag.Duration("slo-window", 6*time.Hour, "SLO error-budget window (also the longest burn-rate lookback)")
		federateInt  = flag.Duration("federate-interval", 5*time.Second, "coordinator mode: per-shard /metrics scrape period feeding GET /v1/cluster/metrics (negative disables federation)")
	)
	flag.Parse()
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fatalf("%v", err)
	}
	logger, err := obs.NewLogger(os.Stderr, *logFormat, level)
	if err != nil {
		fatalf("%v", err)
	}
	logger = logger.With("daemon", "rpserve")

	// Control-plane state shared across the layers: the event journal
	// (membership, circuit, job and alert transitions; served at
	// /debug/events) and the SLO burn-rate engine (fed by the request
	// middleware, surfaced via /v1/alerts, /metrics and the /healthz
	// verdict). Both are nil-safe everywhere they are handed to.
	var events *obs.EventRing
	if *eventBuffer >= 0 {
		events = obs.NewEventRing(*eventBuffer, logger)
	}
	slo := obs.NewSLO(obs.SLOOptions{
		Availability: *sloAvail,
		LatencyP99:   *sloLatency,
		Window:       *sloWindow,
		Events:       events,
	})

	coordMode := *shards != "" || *shardsFile != "" || *coordinator
	if *worker {
		if coordMode {
			fatalf("-worker and -shards/-shards-file/-coordinator are mutually exclusive")
		}
		// Fail loudly on flags a worker would silently drop: a worker has
		// no job manager, so persistent-job settings signal a daemon that
		// was meant to be a coordinator or standalone.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "jobs-dir", "job-workers", "job-ttl":
				fatalf("-worker serves no jobs; -%s is meaningless here", f.Name)
			case "sessions", "session-ttl":
				fatalf("-worker serves no placement sessions; -%s is meaningless here", f.Name)
			}
		})
	} else if *register != "" {
		fatalf("-register is a worker-mode flag; start this daemon with -worker (coordinators are joined, they don't join)")
	}

	// Coordinator mode: build the shard pool first — the registry grows
	// an @remote twin per solver and the job kinds become the sharded
	// ones, everything else is wired identically.
	var pool *cluster.Pool
	registry := service.NewRegistry()
	if coordMode {
		var addrs []string
		if *shards != "" {
			addrs = strings.Split(*shards, ",")
		}
		var err error
		pool, err = cluster.NewPool(addrs, cluster.PoolOptions{
			MaxInFlight:        *shardConc,
			ExpireAfter:        *shardExpire,
			RouteCacheSize:     *routeCache,
			RouteCacheMaxBytes: *routeCacheB,
			FederateInterval:   *federateInt,
			Events:             events,
			Logger:             logger,
		})
		if err != nil {
			fatalf("building shard pool: %v", err)
		}
		defer pool.Close()
		if *shardsFile != "" {
			if _, _, err := pool.SyncFromFile(*shardsFile); err != nil {
				fatalf("loading shards file: %v", err)
			}
			go reloadShardsLoop(pool, *shardsFile, *shardsReload, logger)
		}
		if err := cluster.RegisterRemote(registry, pool); err != nil {
			fatalf("registering remote solvers: %v", err)
		}
		pingCtx, pingCancel := context.WithTimeout(context.Background(), 5*time.Second)
		for addr, err := range pool.Ping(pingCtx) {
			if err != nil {
				logger.Warn("shard unreachable at startup; will keep probing", "shard", addr, "error", err)
			} else {
				logger.Info("shard up", "shard", addr)
			}
		}
		pingCancel()
	}

	engine := service.NewEngine(service.EngineOptions{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheSize:      *cache,
		CacheMaxBytes:  *cacheBytes,
		CacheTTL:       *cacheTTL,
		DefaultTimeout: *timeout,
		Registry:       registry,
		Logger:         logger,
	})

	var spans *obs.SpanStore
	if *traceBuffer >= 0 {
		spans = obs.NewSpanStore(*traceBuffer)
	}
	handlerOpts := service.HandlerOptions{
		MaxInlineCampaigns: *campaigns,
		ClusterSecret:      *clusterSec,
		Logger:             logger,
		SlowRequest:        *slowReq,
		Spans:              spans,
		TraceSample:        *traceSample,
		SLO:                slo,
		Events:             events,
	}
	wireSrv := wire.NewServer(engine, logger)
	wireSrv.Spans = spans
	handlerOpts.Wire = wireSrv
	var manager *jobs.Manager
	if *worker {
		// A worker shard serves raw capacity: no job manager, and the
		// coordinator's pool — not a local slot count — bounds campaigns.
		handlerOpts.MaxInlineCampaigns = -1
		if *campaigns != 0 {
			handlerOpts.MaxInlineCampaigns = *campaigns
		}
	} else {
		var kinds []jobs.Kind // nil = the local pair
		if pool != nil {
			kinds = cluster.Kinds(engine, pool)
		}
		var err error
		manager, err = service.NewJobsManagerOpts(engine, service.JobsOptions{
			Dir:       *jobsDir,
			Workers:   *jobWorkers,
			RetainFor: *jobTTL,
			Kinds:     kinds,
			Logger:    logger,
			Spans:     spans,
			Events:    events,
		})
		if err != nil {
			fatalf("opening job store: %v", err)
		}
		if n := manager.Recovered(); n > 0 {
			logger.Info("resuming unfinished jobs", "count", n, "dir", *jobsDir)
		}
		handlerOpts.Jobs = manager
	}
	if pool != nil {
		handlerOpts.Cluster = pool
	}
	var sessionMgr *session.Manager
	if !*worker && *sessionsMax >= 0 {
		// Placement sessions live on daemons and coordinators; worker
		// shards serve stateless solve capacity only.
		sessionMgr = session.NewManager(session.Options{
			Resolve:     service.SessionResolver(engine.Registry()),
			MaxSessions: *sessionsMax,
			TTL:         *sessionTTL,
			Logger:      logger,
		})
		handlerOpts.Sessions = sessionMgr
	}

	var handler http.Handler = service.NewHandlerOpts(engine, handlerOpts)
	if *pprofOn {
		// An outer mux keeps pprof off the instrumented API mux (profile
		// downloads would drown the latency histograms) and far away from
		// http.DefaultServeMux.
		root := http.NewServeMux()
		root.Handle("/", handler)
		obs.RegisterPprof(root)
		handler = root
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		// net/http's own complaints (TLS handshake noise, panics) flow
		// through the structured logger too, so json mode stays json.
		ErrorLog: slog.NewLogLogger(logger.Handler(), slog.LevelError),
	}

	var registrar *cluster.Registrar
	if *worker && *register != "" {
		adv := *advertise
		if adv == "" {
			adv = cluster.DefaultAdvertise(*addr)
		}
		registrar = &cluster.Registrar{
			Coordinator: *register,
			Advertise:   adv,
			Secret:      *clusterSec,
			Interval:    *registerInt,
			Logger:      logger,
		}
	}

	errc := make(chan error, 1)
	go func() {
		mode := "standalone"
		switch {
		case *worker:
			mode = "worker"
		case pool != nil:
			mode = fmt.Sprintf("coordinator over %d shard(s)", len(pool.Addrs()))
		}
		logger.Info("listening", "addr", *addr, "workers", engine.Stats().Workers, "mode", mode)
		if registrar != nil {
			if err := registrar.Start(); err != nil {
				errc <- err
				return
			}
		}
		errc <- srv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		logger.Info("shutting down", "signal", sig.String(), "drain", drain.String())
	case err := <-errc:
		fatalf("%v", err)
	}

	// Leave the cluster before the listener closes: the coordinator
	// stops handing this worker new rows while in-flight ones drain.
	if registrar != nil {
		registrar.Stop()
	}
	// Session watchers are long-lived streaming responses that would
	// otherwise pin connections for Shutdown's whole drain; closing the
	// manager first ends their streams cleanly.
	if sessionMgr != nil {
		sessionMgr.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Warn("http shutdown", "error", err)
	}
	// Hijacked wire connections are invisible to srv.Shutdown: close
	// them explicitly so coordinators fail over instead of hanging.
	wireSrv.Close()
	// Jobs first: running jobs checkpoint (interrupted, resumable on the
	// next start) and release their engine work before the engine pool
	// itself drains.
	if manager != nil {
		if err := manager.Close(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			logger.Warn("jobs shutdown", "error", err)
		}
	}
	if err := engine.Close(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("engine shutdown", "error", err)
	}
	logger.Info("bye")
}

// reloadShardsLoop re-reads the shards file on SIGHUP and, when the
// interval is positive, periodically — the poor man's config watcher,
// good enough for a file that changes on operator action.
func reloadShardsLoop(pool *cluster.Pool, path string, every time.Duration, logger *slog.Logger) {
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	var tick <-chan time.Time
	if every > 0 {
		t := time.NewTicker(every)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-hup:
		case <-tick:
		}
		added, removed, err := pool.SyncFromFile(path)
		switch {
		case err != nil:
			logger.Warn("shards file reload failed", "path", path, "error", err)
		case added+removed > 0:
			logger.Info("shards file reloaded", "added", added, "removed", removed,
				"epoch", pool.Epoch(), "members", fmt.Sprintf("%v", pool.Addrs()))
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rpserve: "+format+"\n", args...)
	os.Exit(1)
}
