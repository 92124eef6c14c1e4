package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/wire"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/session"
)

// program is one instance of the service under test, built the way
// rpserve builds it by default and served on a loopback listener. The
// routed variant is an rpserve coordinator whose pool fronts two
// in-process worker shards, each on its own listener.
type program struct {
	engine   *service.Engine
	sessions *session.Manager
	pool     *cluster.Pool  // routed only
	workers  []*shardWorker // routed only
	srv      *server
}

// shardWorker is one in-process rpserve -worker: a one-goroutine engine
// behind the binary wire transport.
type shardWorker struct {
	engine *service.Engine
	wire   *wire.Server
	srv    *server
}

// newProgram builds and serves a program. spans selects rpserve's
// default flight recorder (every request traced); without it the
// handler records no spans, which the traced phase uses to measure the
// recorder's overhead. wrap, when set, wraps the handler the program
// serves, so the harness can time it from outside.
func newProgram(routed, spans bool, wrap func(http.Handler) http.Handler) (*program, error) {
	logger, err := obs.NewLogger(io.Discard, "text", slog.LevelInfo)
	if err != nil {
		return nil, err
	}
	events := obs.NewEventRing(obs.DefaultEventCapacity, logger)
	p := &program{}
	registry := service.NewRegistry()
	if routed {
		var addrs []string
		for range 2 {
			w, err := startShardWorker(logger, spans)
			if err != nil {
				p.close()
				return nil, err
			}
			p.workers = append(p.workers, w)
			addrs = append(addrs, w.srv.addr())
		}
		// rpserve's default pool options are PoolOptions' zero values.
		p.pool, err = cluster.NewPool(addrs, cluster.PoolOptions{Events: events, Logger: logger})
		if err != nil {
			p.close()
			return nil, err
		}
		if err := cluster.RegisterRemote(registry, p.pool); err != nil {
			p.close()
			return nil, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		for addr, err := range p.pool.Ping(ctx) {
			if err != nil {
				cancel()
				p.close()
				return nil, fmt.Errorf("shard %s: %w", addr, err)
			}
		}
		cancel()
	}
	p.engine = service.NewEngine(service.EngineOptions{Registry: registry, Logger: logger})
	p.sessions = session.NewManager(session.Options{
		Resolve: service.SessionResolver(p.engine.Registry()),
		Logger:  logger,
	})
	opts := service.HandlerOptions{
		Logger:      logger,
		Spans:       newSpanStore(spans),
		TraceSample: 1,
		Events:      events,
		Sessions:    p.sessions,
	}
	if p.pool != nil {
		opts.Cluster = p.pool
	}
	h := service.NewHandlerOpts(p.engine, opts)
	if wrap != nil {
		h = wrap(h)
	}
	if p.srv, err = serve(h); err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

func newSpanStore(on bool) *obs.SpanStore {
	if !on {
		return nil
	}
	return obs.NewSpanStore(obs.DefaultSpanCapacity)
}

func startShardWorker(logger *slog.Logger, spans bool) (*shardWorker, error) {
	w := &shardWorker{engine: service.NewEngine(service.EngineOptions{Workers: 1, Logger: logger})}
	store := newSpanStore(spans)
	w.wire = wire.NewServer(w.engine, logger)
	w.wire.Spans = store
	h := service.NewHandlerOpts(w.engine, service.HandlerOptions{
		Wire:               w.wire,
		MaxInlineCampaigns: -1,
		Logger:             logger,
		Spans:              store,
		TraceSample:        1,
		Events:             obs.NewEventRing(obs.DefaultEventCapacity, logger),
	})
	var err error
	if w.srv, err = serve(h); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// url is the base URL clients send requests to.
func (p *program) url() string { return "http://" + p.srv.addr() }

// close shuts the program down in rpserve's order: sessions first (so
// watch streams end), then the listener, the pool, the shards and the
// engine's workers.
func (p *program) close() {
	if p.sessions != nil {
		p.sessions.Close()
	}
	if p.srv != nil {
		p.srv.close()
	}
	if p.pool != nil {
		p.pool.Close()
	}
	for _, w := range p.workers {
		w.close()
	}
	if p.engine != nil {
		closeEngine(p.engine)
	}
}

func (w *shardWorker) close() {
	if w.srv != nil {
		w.srv.close()
	}
	w.wire.Close()
	closeEngine(w.engine)
}

func closeEngine(e *service.Engine) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.Close(ctx); err != nil {
		log.Printf("engine close: %v", err)
	}
}

// server is an http.Server on a fresh 127.0.0.1 listener.
type server struct {
	srv  *http.Server
	ln   net.Listener
	done chan struct{} // closed when Serve has returned
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 10 * time.Second,
			ErrorLog:          log.New(io.Discard, "", 0),
		},
		ln:   ln,
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("serve %s: %v", ln.Addr(), err)
		}
	}()
	return s, nil
}

func (s *server) addr() string { return s.ln.Addr().String() }

// close drains in-flight requests briefly, then closes what is left.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
	<-s.done
}
