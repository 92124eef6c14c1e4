// Command rpworker runs a placement worker shard: the solve surface of
// rpserve (/v1/solve, /v1/bound, /v1/batch, /v1/generate, /v1/campaign)
// plus the /v1/worker/ping liveness probe a coordinator's shard pool
// polls, and nothing else — no async job manager, no shard pool of its
// own. A coordinator (rpserve -shards) fans solves, sharded campaign
// rows and batch chunks out to a fleet of these.
//
// Usage:
//
//	rpworker -addr :8081 -workers 8
//	rpworker -addr :8082 -workers 8
//	rpserve  -addr :8080 -shards localhost:8081,localhost:8082 -jobs-dir ./jobs
//
// or, with dynamic membership, let the workers join the pool themselves:
//
//	rpserve  -addr :8080 -coordinator -jobs-dir ./jobs
//	rpworker -addr :8081 -register http://localhost:8080
//	rpworker -addr :8082 -register http://localhost:8080
//
// -register POSTs /v1/cluster/shards at startup, re-registers on a
// heartbeat (-register-interval) so a restarted coordinator relearns
// the worker, and deregisters on graceful shutdown. The advertised
// address defaults from -addr; set -advertise when the coordinator
// reaches this worker under a different name. The shard's placement
// weight is discovered from /v1/worker/ping (the solver goroutine
// count), so a big worker automatically takes a proportionally bigger
// share of cluster work.
//
// Inline campaign streams are unlimited here (a worker is dedicated
// capacity — the coordinator's pool is what bounds per-shard traffic),
// unlike rpserve's public default of 2.
//
// SIGINT/SIGTERM drain gracefully within -drain. A coordinator treats a
// draining worker like a dead one: in-flight work fails over to the
// remaining shards and the circuit breaker keeps traffic away until the
// worker returns.
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
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/wire"
	"repro/internal/obs"
	"repro/internal/service"
)

func main() {
	var (
		addr        = flag.String("addr", ":8081", "listen address")
		workers     = flag.Int("workers", 0, "solver goroutines (0 = GOMAXPROCS)")
		queue       = flag.Int("queue", 0, "job queue depth before backpressure (0 = 4x workers)")
		cache       = flag.Int("cache", 4096, "cached results (negative disables retention)")
		cacheBytes  = flag.Int64("cache-bytes", 0, "approximate cache footprint limit in bytes (0 = unlimited)")
		cacheTTL    = flag.Duration("cache-ttl", 0, "cached result lifetime (0 = never expires)")
		timeout     = flag.Duration("timeout", 60*time.Second, "default per-job deadline")
		drain       = flag.Duration("drain", 30*time.Second, "graceful shutdown budget")
		register    = flag.String("register", "", "coordinator URL to self-register with (POST /v1/cluster/shards + heartbeat)")
		advertise   = flag.String("advertise", "", "address the coordinator dials back (default derived from -addr)")
		regEvery    = flag.Duration("register-interval", 10*time.Second, "self-registration heartbeat period")
		clusterSec  = flag.String("cluster-secret", "", "shared secret presented when self-registering (must match the coordinator's -cluster-secret)")
		logFormat   = flag.String("log-format", "text", "log output format: text or json")
		logLevel    = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
		slowReq     = flag.Duration("slow-request", 0, "log requests slower than this at warn level (0 = disabled)")
		pprofOn     = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		traceSample = flag.Float64("trace-sample", 1.0, "fraction of requests recording span traces (slow requests are always retained)")
		traceBuffer = flag.Int("trace-buffer", obs.DefaultSpanCapacity, "spans held in the in-process flight recorder (0 = default, negative disables tracing)")
		eventBuffer = flag.Int("event-buffer", obs.DefaultEventCapacity, "events held in the in-process journal at /debug/events (0 = default, negative disables)")
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
	logger = logger.With("daemon", "rpworker")

	engine := service.NewEngine(service.EngineOptions{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheSize:      *cache,
		CacheMaxBytes:  *cacheBytes,
		CacheTTL:       *cacheTTL,
		DefaultTimeout: *timeout,
		Logger:         logger,
	})
	// No job manager: /v1/jobs answers 501 pointing at the coordinator.
	// Campaign streams are unbounded — the pool that feeds this worker
	// is the admission controller.
	var spans *obs.SpanStore
	if *traceBuffer >= 0 {
		spans = obs.NewSpanStore(*traceBuffer)
	}
	var events *obs.EventRing
	if *eventBuffer >= 0 {
		events = obs.NewEventRing(*eventBuffer, logger)
	}
	handlerOpts := service.HandlerOptions{
		MaxInlineCampaigns: -1,
		Logger:             logger,
		SlowRequest:        *slowReq,
		Spans:              spans,
		TraceSample:        *traceSample,
		Events:             events,
	}
	wireSrv := wire.NewServer(engine, logger)
	wireSrv.Spans = spans
	handlerOpts.Wire = wireSrv
	var handler http.Handler = service.NewHandlerOpts(engine, handlerOpts)
	if *pprofOn {
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
		ErrorLog:          slog.NewLogLogger(logger.Handler(), slog.LevelError),
	}

	var registrar *cluster.Registrar
	if *register != "" {
		adv := *advertise
		if adv == "" {
			adv = cluster.DefaultAdvertise(*addr)
		}
		registrar = &cluster.Registrar{
			Coordinator: *register,
			Advertise:   adv,
			Secret:      *clusterSec,
			Interval:    *regEvery,
			Logger:      logger,
		}
	}

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr, "workers", engine.Stats().Workers)
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

	// Leave the pool first: the coordinator stops handing this worker
	// new rows while the in-flight ones drain below.
	if registrar != nil {
		registrar.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Warn("http shutdown", "error", err)
	}
	// Hijacked wire connections are invisible to srv.Shutdown: close
	// them explicitly so the coordinator fails over instead of hanging.
	wireSrv.Close()
	if err := engine.Close(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("engine shutdown", "error", err)
	}
	logger.Info("bye")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rpworker: "+format+"\n", args...)
	os.Exit(1)
}
