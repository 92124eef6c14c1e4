package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// PoolOptions configures NewPool. The zero value selects sensible
// defaults throughout.
type PoolOptions struct {
	// MaxInFlight bounds concurrent requests per shard *per weight
	// unit* (default 4): a weight-2 shard admits twice what a weight-1
	// shard does. Work beyond the bound waits for a slot rather than
	// piling onto a worker that is already saturated.
	MaxInFlight int
	// FailThreshold is the number of consecutive transient failures
	// that opens a shard's circuit (default 3). A failure in the
	// half-open state re-opens it immediately.
	FailThreshold int
	// OpenFor is how long an open circuit rejects traffic before
	// admitting a half-open trial request (default 2s).
	OpenFor time.Duration
	// ProbeInterval is the background health-probe period: non-closed
	// shards are pinged (GET /v1/worker/ping) and close their circuit on
	// success, so idle pools notice recovery without traffic. Default
	// 1s; negative disables probing.
	ProbeInterval time.Duration
	// MaxFailures bounds how many failed executions one pool call
	// tolerates before giving up (default 2×shards+2, tracking the
	// current membership). Waiting for a free slot does not count —
	// only actual failed attempts do.
	MaxFailures int
	// RetryBackoff is the pause before re-scanning the shard list when
	// no shard is currently available (default 25ms).
	RetryBackoff time.Duration
	// ExpireAfter is the number of consecutive failed health probes
	// after which a file- or API-origin shard is expired from the
	// membership entirely (its breaker state and counters discarded), so
	// a worker that was killed without deregistering stops occupying a
	// seat forever. Shards from the static NewPool list never expire —
	// the operator put them there explicitly. 0 (the default) disables
	// expiry; expiry also requires probing to be enabled.
	ExpireAfter int
	// RouteCacheSize bounds the coordinator's routed-row cache — raw
	// result bytes of wire-routed batch variations, keyed by canonical
	// request hash, served without re-contacting a shard when an inline
	// batch repeats a variation. 0 selects the default of 4096 entries;
	// negative disables the cache.
	RouteCacheSize int
	// RouteCacheMaxBytes additionally bounds the routed-row cache's
	// approximate retained footprint, mirroring the engine cache's byte
	// limit: include_solution rows can be large, so an entry count alone
	// does not bound memory. 0 selects the default of 256 MiB; negative
	// removes the byte bound (entry count still applies).
	RouteCacheMaxBytes int64
	// FederateInterval is how often the probe loop additionally scrapes
	// each healthy shard's /metrics for the federated
	// GET /v1/cluster/metrics view (default 5s; negative disables
	// federation). A shard whose last good scrape is older than three
	// intervals ages out of the merge; scraping requires probing to be
	// enabled.
	FederateInterval time.Duration
	// Client is the HTTP client for health pings and federation scrapes
	// only (default a dedicated client; per-request deadlines come from
	// contexts). Solves, batch chunks and campaign rows ride the wire
	// transport's own persistent connections.
	Client *http.Client
	// Logger receives membership changes and circuit-breaker transitions
	// (nil discards).
	Logger *slog.Logger
	// Events, when set, receives the cluster event journal: shard
	// join/leave/expire and circuit transitions.
	Events *obs.EventRing
}

func (o PoolOptions) withDefaults() PoolOptions {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 4
	}
	if o.FailThreshold <= 0 {
		o.FailThreshold = 3
	}
	if o.OpenFor <= 0 {
		o.OpenFor = 2 * time.Second
	}
	if o.ProbeInterval == 0 {
		o.ProbeInterval = time.Second
	}
	if o.MaxFailures < 0 {
		o.MaxFailures = 0 // 0 = track membership size in do()
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 25 * time.Millisecond
	}
	if o.ExpireAfter < 0 {
		o.ExpireAfter = 0
	}
	if o.RouteCacheSize == 0 {
		o.RouteCacheSize = 4096
	}
	if o.FederateInterval == 0 {
		o.FederateInterval = 5 * time.Second
	}
	if o.RouteCacheMaxBytes == 0 {
		o.RouteCacheMaxBytes = 256 << 20
	}
	if o.Logger == nil {
		o.Logger = obs.NopLogger()
	}
	if o.Client == nil {
		// No global response timeout — per-call deadlines come from
		// contexts — but connection establishment is bounded and
		// keepalives detect dead peers, so an unreachable or firewalled
		// shard fails a probe fast.
		o.Client = &http.Client{Transport: &http.Transport{
			DialContext: (&net.Dialer{
				Timeout:   5 * time.Second,
				KeepAlive: 15 * time.Second,
			}).DialContext,
			MaxIdleConnsPerHost: o.MaxInFlight,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	return o
}

// ErrNoShard is the terminal error of a pool call that never found an
// available shard (empty membership, every circuit open, or every
// attempt failed).
var ErrNoShard = errors.New("cluster: no healthy shard available")

// maxShardWeight caps a shard's placement weight: weights are advisory
// share ratios, and an absurd self-reported core count must not let one
// shard monopolize the smooth-WRR picker (or its iteration bound).
const maxShardWeight = 256

// Shard-membership origins. A shard joined by exactly one path; file
// reloads reconcile only the file-origin subset, so an operator's
// static list and API-registered workers survive a reload untouched.
const (
	originStatic = "static" // the NewPool address list
	originFile   = "file"   // a -shards-file entry
	originAPI    = "api"    // POST /v1/cluster/shards (self-registration)
)

// breakerState is a shard's circuit position.
type breakerState int

const (
	stateClosed breakerState = iota
	stateOpen
	stateHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case stateOpen:
		return "open"
	case stateHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// shard is one worker process, its circuit breaker and its counters.
type shard struct {
	addr   string // base URL, no trailing slash
	origin string // originStatic / originFile / originAPI
	log    *slog.Logger
	events *obs.EventRing // cluster event journal (nil-safe)

	// fedMu guards the federated-metrics cache: the shard's last
	// successfully scraped-and-parsed /metrics families and when they
	// were taken.
	fedMu   sync.Mutex
	fedFams map[string]*obs.Family
	fedAt   time.Time

	mu           sync.Mutex
	weight       int  // placement weight (>= 1)
	explicit     bool // weight was set by the operator; pings don't override
	cur          int  // smooth-WRR accumulator
	inflight     int
	capacity     int // MaxInFlight × weight
	state        breakerState
	fails        int       // consecutive transient failures
	openUntil    time.Time // when an open circuit admits its trial
	missedProbes int       // consecutive failed health probes (expiry)

	requests, failures, failovers uint64

	wire shardWire // persistent wire-transport links (its own lock)
}

// tryAcquire takes an in-flight slot if the shard has one free and its
// circuit admits traffic: closed always does; open does once OpenFor
// has elapsed (the caller becomes the half-open trial); half-open
// admits nothing while its trial is outstanding.
func (s *shard) tryAcquire(now time.Time) bool {
	s.mu.Lock()
	if s.inflight >= s.capacity {
		s.mu.Unlock()
		return false
	}
	admitted, halfOpened := false, false
	switch s.state {
	case stateClosed:
		admitted = true
	case stateOpen:
		if now.After(s.openUntil) {
			s.state = stateHalfOpen
			halfOpened = true
			admitted = true
		}
	case stateHalfOpen:
		// The trial is in flight; nobody else gets through.
	}
	if admitted {
		s.inflight++
		s.requests++
	}
	s.mu.Unlock()
	if halfOpened {
		s.events.Emit(context.Background(), "circuit_half_open",
			"shard circuit half-open: trial request admitted", "shard", s.addr)
	}
	return admitted
}

func (s *shard) release() {
	s.mu.Lock()
	s.inflight--
	s.mu.Unlock()
}

// recordSuccess closes the circuit (a half-open trial that succeeds
// recovers the shard).
func (s *shard) recordSuccess() {
	s.mu.Lock()
	recovered := s.state != stateClosed
	s.fails = 0
	s.state = stateClosed
	s.mu.Unlock()
	if recovered {
		s.log.Info("shard circuit closed", "shard", s.addr)
		s.events.Emit(context.Background(), "circuit_closed",
			"shard circuit closed: shard recovered", "shard", s.addr)
	}
}

// recordFailure counts a transient failure; enough of them in a row —
// or any in the half-open state — open the circuit for OpenFor.
func (s *shard) recordFailure(openFor time.Duration, threshold int, failedOver bool) {
	s.mu.Lock()
	s.failures++
	if failedOver {
		s.failovers++
	}
	s.fails++
	opened := false
	if s.state == stateHalfOpen || s.fails >= threshold {
		opened = s.state != stateOpen
		s.state = stateOpen
		s.openUntil = time.Now().Add(openFor)
	}
	fails := s.fails
	s.mu.Unlock()
	if opened {
		s.log.Warn("shard circuit opened",
			"shard", s.addr, "consecutive_failures", fails, "open_for", openFor.String())
		s.events.Emit(context.Background(), "circuit_open",
			"shard circuit opened after consecutive failures",
			"shard", s.addr, "consecutive_failures", fmt.Sprint(fails))
	}
}

// setWeight applies a weight change (clamped to [1, maxShardWeight])
// and rescales the in-flight capacity. explicit weights — set by the
// operator at registration — stick; discovered ones (ping-reported
// core counts) track the latest report.
func (s *shard) setWeight(w int, explicit bool, perUnit int) bool {
	if w < 1 {
		w = 1
	}
	if w > maxShardWeight {
		w = maxShardWeight
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.explicit && !explicit {
		return false
	}
	changed := s.weight != w
	s.weight = w
	s.explicit = s.explicit || explicit
	s.capacity = perUnit * w
	return changed
}

func (s *shard) stat() service.ShardStat {
	s.wire.mu.Lock()
	wireIdle := len(s.wire.idle)
	s.wire.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return service.ShardStat{
		Addr:      s.addr,
		State:     s.state.String(),
		Healthy:   s.state == stateClosed,
		Weight:    s.weight,
		InFlight:  s.inflight,
		Requests:  s.requests,
		Failures:  s.failures,
		Failovers: s.failovers,
		WireIdle:  wireIdle,
	}
}

// Pool fans work out over a mutable set of worker shards: members join
// and leave at runtime (registration API, file reload) and a smooth
// weighted-round-robin picker hands work out proportionally to shard
// weights. All methods are safe for concurrent use.
type Pool struct {
	mu     sync.RWMutex // guards shards slice + picker state
	shards []*shard
	epoch  atomic.Uint64 // bumped on every membership change
	opts   PoolOptions

	batchesRouted     atomic.Uint64
	rowsRouted        atomic.Uint64
	rowsLocalFallback atomic.Uint64
	batchCacheShort   atomic.Uint64 // routed variations served from coordinator caches
	shardsExpired     atomic.Uint64
	wireConns         atomic.Uint64 // wire connections dialed
	wireReqs          atomic.Uint64 // requests sent over the wire transport
	wireRows          atomic.Uint64 // row frames received

	// routeCache holds raw wire-routed row bytes by canonical request
	// key (nil when disabled).
	routeCache *rawCache

	// Latency histograms exposed via service.ClusterLatencies: shard
	// HTTP round-trips per shard, routed-batch chunk dispatch-to-done,
	// and reorder-buffer wait of completed lines.
	shardRTT    *obs.HistogramVec
	batchChunk  *obs.Histogram
	reorderWait *obs.Histogram

	log *slog.Logger

	stopProbe chan struct{}
	probeWG   sync.WaitGroup
	closeOnce sync.Once
}

// normalizeAddr canonicalizes a shard address ("host:port" or an
// http:// URL) to the base-URL form membership is keyed by. No daemon
// serves TLS, so an https:// (or any other scheme's) shard could never
// complete the wire upgrade: it is rejected here, at join time.
func normalizeAddr(a string) (string, error) {
	addr := strings.TrimSpace(a)
	if addr == "" {
		return "", errors.New("cluster: empty shard address")
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	} else if !strings.HasPrefix(addr, "http://") {
		return "", fmt.Errorf("cluster: shard address %q: only http:// shards are supported (workers serve no TLS)", a)
	}
	return strings.TrimRight(addr, "/"), nil
}

// NewPool builds a pool over the initial shard addresses ("host:port"
// or full URLs) and starts its health prober. The list may be empty —
// a coordinator can start bare and let workers register themselves
// (POST /v1/cluster/shards) or arrive via a -shards-file reload. Close
// releases the prober.
func NewPool(addrs []string, opts PoolOptions) (*Pool, error) {
	p := &Pool{
		opts:        opts.withDefaults(),
		stopProbe:   make(chan struct{}),
		shardRTT:    obs.NewHistogramVec(nil),
		batchChunk:  obs.NewHistogram(nil),
		reorderWait: obs.NewHistogram(nil),
	}
	p.routeCache = newRawCache(p.opts.RouteCacheSize, p.opts.RouteCacheMaxBytes)
	p.log = p.opts.Logger
	seen := map[string]bool{}
	for _, a := range addrs {
		addr, err := normalizeAddr(a)
		if err != nil {
			return nil, err
		}
		if seen[addr] {
			return nil, fmt.Errorf("cluster: duplicate shard address %s", addr)
		}
		seen[addr] = true
		p.shards = append(p.shards, p.newShard(addr, originStatic, 0))
	}
	if p.opts.ProbeInterval > 0 {
		p.probeWG.Add(1)
		go p.probeLoop()
	}
	return p, nil
}

// newShard builds a member with a fresh (closed) breaker. weight <= 0
// selects the default of 1, refreshed by the next successful ping.
func (p *Pool) newShard(addr, origin string, weight int) *shard {
	s := &shard{addr: addr, origin: origin, log: p.opts.Logger, events: p.opts.Events}
	s.setWeight(weight, weight > 0, p.opts.MaxInFlight)
	return s
}

// Close stops the background prober and tears down every shard's
// persistent wire connections. In-flight calls finish normally (a call
// holding a wire connection keeps it; it just won't be parked again).
func (p *Pool) Close() {
	p.closeOnce.Do(func() { close(p.stopProbe) })
	p.probeWG.Wait()
	for _, s := range p.snapshot() {
		s.wireClose()
	}
}

// Epoch is the current membership epoch; it increments on every join,
// leave or reload-driven change. Long-running jobs compare epochs to
// notice joins mid-run and grow their fan-out.
func (p *Pool) Epoch() uint64 { return p.epoch.Load() }

// AddShard joins a worker at runtime (implements
// service.ClusterMembership). A known address is not re-added: its
// weight is updated instead (a worker heartbeat re-registering after a
// coordinator restart, or an operator re-weighting), and the epoch only
// advances when membership or weights actually changed.
func (p *Pool) AddShard(addr string, weight int) (service.ShardStat, bool, error) {
	return p.addShard(addr, originAPI, weight)
}

func (p *Pool) addShard(addr, origin string, weight int) (service.ShardStat, bool, error) {
	norm, err := normalizeAddr(addr)
	if err != nil {
		return service.ShardStat{}, false, err
	}
	p.mu.Lock()
	for _, s := range p.shards {
		if s.addr == norm {
			p.mu.Unlock()
			if weight > 0 && s.setWeight(weight, true, p.opts.MaxInFlight) {
				p.epoch.Add(1)
			}
			return s.stat(), false, nil
		}
	}
	s := p.newShard(norm, origin, weight)
	p.shards = append(p.shards, s)
	p.mu.Unlock()
	p.epoch.Add(1)
	p.log.Info("shard joined", "shard", norm, "origin", origin, "weight", weight, "epoch", p.epoch.Load())
	p.opts.Events.Emit(context.Background(), "shard_joined", "shard joined the pool",
		"shard", norm, "origin", origin)
	if weight <= 0 {
		// Learn the real capacity in the background; placement runs on
		// the default weight of 1 until the worker answers.
		go p.probeWeight(s)
	}
	return s.stat(), true, nil
}

// RemoveShard leaves a worker (implements service.ClusterMembership).
// Requests in flight on it finish or fail over normally; its breaker
// state and counters are discarded, so a later re-join starts fresh.
func (p *Pool) RemoveShard(addr string) bool {
	if !p.removeShard(addr) {
		return false
	}
	p.opts.Events.Emit(context.Background(), "shard_left", "shard left the pool", "shard", addr)
	return true
}

// removeShard is RemoveShard without the shard_left event — probe-driven
// expiry journals shard_expired instead of a voluntary departure.
func (p *Pool) removeShard(addr string) bool {
	norm, err := normalizeAddr(addr)
	if err != nil {
		return false
	}
	p.mu.Lock()
	for i, s := range p.shards {
		if s.addr == norm {
			p.shards = append(p.shards[:i], p.shards[i+1:]...)
			p.mu.Unlock()
			s.wireClose()
			p.epoch.Add(1)
			p.log.Info("shard left", "shard", norm, "epoch", p.epoch.Load())
			return true
		}
	}
	p.mu.Unlock()
	return false
}

// snapshot returns the current member slice (shared pointers, private
// slice header).
func (p *Pool) snapshot() []*shard {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]*shard, len(p.shards))
	copy(out, p.shards)
	return out
}

// ShardCount is the current membership size.
func (p *Pool) ShardCount() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.shards)
}

// Width is the pool's total admission capacity — the sum over shards of
// weight × per-unit in-flight slots. Fan-out callers size their worker
// sets to it; more concurrency than this only spins on the acquire
// loop. It changes with membership: poll it (or Epoch) mid-job.
func (p *Pool) Width() int {
	w := 0
	for _, s := range p.snapshot() {
		s.mu.Lock()
		w += s.capacity
		s.mu.Unlock()
	}
	return w
}

// TotalWeight sums the member weights (minimum 0 for an empty pool).
func (p *Pool) TotalWeight() int {
	w := 0
	for _, s := range p.snapshot() {
		s.mu.Lock()
		w += s.weight
		s.mu.Unlock()
	}
	return w
}

// Addrs lists the shard base URLs in membership order.
func (p *Pool) Addrs() []string {
	shards := p.snapshot()
	out := make([]string, len(shards))
	for i, s := range shards {
		out[i] = s.addr
	}
	return out
}

// ShardStats implements service.ClusterInfo for /healthz and /metrics.
func (p *Pool) ShardStats() []service.ShardStat {
	shards := p.snapshot()
	out := make([]service.ShardStat, len(shards))
	for i, s := range shards {
		out[i] = s.stat()
	}
	return out
}

// ClusterStats implements service.ClusterStatsProvider.
func (p *Pool) ClusterStats() service.ClusterStats {
	return service.ClusterStats{
		Epoch:                   p.epoch.Load(),
		BatchesRouted:           p.batchesRouted.Load(),
		RowsRouted:              p.rowsRouted.Load(),
		RowsLocalFallback:       p.rowsLocalFallback.Load(),
		BatchCacheShortCircuits: p.batchCacheShort.Load(),
		ShardsExpired:           p.shardsExpired.Load(),
		WireConnections:         p.wireConns.Load(),
		WireRequests:            p.wireReqs.Load(),
		WireRows:                p.wireRows.Load(),
	}
}

// ClusterHistograms implements service.ClusterLatencies for /metrics.
func (p *Pool) ClusterHistograms() service.ClusterHistograms {
	return service.ClusterHistograms{
		ShardRTT:    p.shardRTT.Snapshot(),
		BatchChunk:  p.batchChunk.Snapshot(),
		ReorderWait: p.reorderWait.Snapshot(),
	}
}

// probeLoop pings every shard each interval. For a non-closed shard a
// successful ping closes its circuit, so recovery is noticed without
// waiting for live traffic to trickle through the half-open state; for
// a healthy shard the ping's side effect keeps the discovered weight
// fresh — a worker whose one join-time probe raced its own listener
// coming up would otherwise serve at the default weight forever.
func (p *Pool) probeLoop() {
	defer p.probeWG.Done()
	t := time.NewTicker(p.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-p.stopProbe:
			return
		case <-t.C:
		}
		for _, s := range p.snapshot() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			err := p.ping(ctx, s)
			cancel()
			if err != nil {
				// Breakers open on request outcomes, not probes — but
				// enough missed probes in a row expire a dynamic member
				// outright (see PoolOptions.ExpireAfter).
				p.recordMissedProbe(s)
				continue
			}
			s.mu.Lock()
			closed := s.state == stateClosed
			s.mu.Unlock()
			if !closed {
				s.recordSuccess()
			}
			p.maybeFederate(s)
		}
	}
}

// recordMissedProbe counts one failed health probe and expires the
// shard once ExpireAfter of them accumulate — dynamic members only:
// a shard from the operator's static list keeps its seat no matter how
// long it is gone.
func (p *Pool) recordMissedProbe(s *shard) {
	s.mu.Lock()
	s.missedProbes++
	missed := s.missedProbes
	origin := s.origin
	s.mu.Unlock()
	if p.opts.ExpireAfter <= 0 || origin == originStatic || missed < p.opts.ExpireAfter {
		return
	}
	if p.removeShard(s.addr) {
		p.shardsExpired.Add(1)
		p.log.Warn("shard expired after missed probes",
			"shard", s.addr, "origin", origin, "missed_probes", missed)
		p.opts.Events.Emit(context.Background(), "shard_expired",
			"shard expired after missed health probes",
			"shard", s.addr, "origin", origin, "missed_probes", fmt.Sprint(missed))
	}
}

// probeWeight pings a just-joined shard once to learn its self-reported
// capacity (ping updates the weight as a side effect).
func (p *Pool) probeWeight(s *shard) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	p.ping(ctx, s)
}

// pickOrder returns the members in this acquisition's preference order.
// The leader comes from one smooth-weighted-round-robin step — across
// consecutive calls each shard leads in exact proportion to its weight,
// interleaved rather than bursty — and the rest follow by descending
// accumulator, i.e. "most underserved first". Shards the caller cannot
// use (busy, open circuit, excluded) are simply tried later in the
// order; the WRR charge stays on the leader, which is the standard
// (slightly lossy, entirely harmless) treatment.
func (p *Pool) pickOrder() []*shard {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.shards)
	if n == 0 {
		return nil
	}
	type ranked struct {
		s   *shard
		cur int
	}
	order := make([]ranked, n)
	total := 0
	for i, s := range p.shards {
		s.mu.Lock()
		s.cur += s.weight
		total += s.weight
		order[i] = ranked{s, s.cur}
		s.mu.Unlock()
	}
	best := 0
	for i := 1; i < n; i++ {
		if order[i].cur > order[best].cur {
			best = i
		}
	}
	order[best].s.mu.Lock()
	order[best].s.cur -= total
	order[best].s.mu.Unlock()
	order[best].cur += maxShardWeight * (n + 1) // rank the leader first
	sort.Slice(order, func(i, j int) bool { return order[i].cur > order[j].cur })
	out := make([]*shard, n)
	for i, r := range order {
		out[i] = r.s
	}
	return out
}

// acquire returns the first shard in weighted preference order that is
// not excluded and admits traffic, or nil when none does right now.
func (p *Pool) acquire(exclude map[*shard]bool) *shard {
	now := time.Now()
	for _, s := range p.pickOrder() {
		if exclude[s] {
			continue
		}
		if s.tryAcquire(now) {
			return s
		}
	}
	return nil
}

// maxFailures is the per-call failover budget under the current
// membership.
func (p *Pool) maxFailures() int {
	if p.opts.MaxFailures > 0 {
		return p.opts.MaxFailures
	}
	return 2*p.ShardCount() + 2
}

// do runs f against one shard, with bounded failover. Transient
// failures (a refused upgrade, transport errors, worker faults and
// shutdown) open breakers and — for idempotent work — move on to
// another shard, preferring ones not yet tried this call; permanent
// failures (the request itself is bad) return immediately without
// blaming the shard. Waiting for a free slot is not an attempt: a
// fully busy pool simply queues here until a slot frees or ctx expires. Because membership is re-read on
// every acquisition, a shard that joins mid-wait is picked up and one
// that leaves stops being offered — an empty pool is the one terminal
// case, failing fast with ErrNoShard.
func (p *Pool) do(ctx context.Context, idempotent bool, f func(ctx context.Context, s *shard) error) error {
	exclude := map[*shard]bool{}
	var lastErr error
	failuresLeft := p.maxFailures()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if p.ShardCount() == 0 {
			return fmt.Errorf("%w: pool has no members", ErrNoShard)
		}
		s := p.acquire(exclude)
		if s == nil {
			// Nothing available: forget exclusions (a previously failed
			// shard may have recovered by the time we rescan) and wait.
			clear(exclude)
			select {
			case <-ctx.Done():
				if lastErr != nil {
					return fmt.Errorf("%w (last shard error: %w)", ctx.Err(), lastErr)
				}
				return ctx.Err()
			case <-time.After(p.opts.RetryBackoff):
			}
			continue
		}
		err := f(ctx, s)
		s.release()
		if err == nil {
			s.recordSuccess()
			return nil
		}
		if ctx.Err() != nil {
			// Our caller's deadline or cancellation, not the shard's
			// fault: don't poison its breaker.
			return ctx.Err()
		}
		if isPermanent(err) {
			s.recordSuccess() // the shard answered; the request was bad
			return err
		}
		lastErr = err
		failuresLeft--
		s.recordFailure(p.opts.OpenFor, p.opts.FailThreshold, idempotent && failuresLeft > 0)
		if !idempotent {
			return lastErr
		}
		if failuresLeft <= 0 {
			// The failover budget is spent across the whole pool: that is
			// the "no healthy shard" outcome, tagged so callers can
			// distinguish cluster exhaustion from a single bad call.
			return fmt.Errorf("%w after %d failed attempts: %w", ErrNoShard, p.maxFailures(), lastErr)
		}
		exclude[s] = true
	}
}
