// Package session implements placement sessions: long-lived registered
// instances of the Replica Placement problem that accept typed deltas
// (rate/capacity changes, clients joining and leaving) and keep a current
// placement by re-solving incrementally. A changed client dirties only its
// root path (see tree.DirtySet); the subtree-local heuristics (MG, CBU)
// then recompute just the dirty vertices over memoized clean-subtree
// summaries, warm-starting from the previous placement, and fall back to a
// full sweep when the dirty fraction crosses a threshold or the topology
// changes. The memoized engine is heuristics.Incremental, the same code a
// cold MG/CBU runs; heuristics.NewIncremental decides which solvers get
// one. Every applied delta yields a placement byte-equivalent to a cold
// re-solve of the mutated instance.
//
// Watchers stream placement diffs ({rev, add, drop, cost}) from a bounded
// per-session history ring, resumable from any revision still retained.
package session

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/heuristics"
	"repro/internal/obs"
	"repro/internal/tree"
)

// Sentinel errors, mapped to HTTP statuses by the service layer.
var (
	// ErrNotFound reports an unknown (or already deleted) instance id.
	ErrNotFound = errors.New("session: no such instance")
	// ErrClosed reports an instance deleted or expired mid-operation.
	ErrClosed = errors.New("session: instance closed")
	// ErrTooManySessions reports the MaxSessions cap.
	ErrTooManySessions = errors.New("session: too many live instances")
	// ErrStaleRev reports a watch resume point older than the retained
	// diff history (the stream cannot be reconstructed without gaps).
	ErrStaleRev = errors.New("session: from_rev is beyond the retained diff history")
	// ErrFutureRev reports a watch resume point ahead of the current
	// revision.
	ErrFutureRev = errors.New("session: from_rev is ahead of the current revision")
	// ErrSolverFault marks a server-side solve failure (a backend error or
	// an invalid solution), as opposed to bad client input. The service
	// layer maps it to a 5xx status.
	ErrSolverFault = errors.New("session: solver fault")
)

// SolveFunc is a cold full solve: it returns the placement, or
// noSolution=true when the backend (correctly) found none, or an error for
// genuine faults. It must be deterministic in the instance.
type SolveFunc func(ctx context.Context, in *core.Instance) (sol *core.Solution, noSolution bool, err error)

// Solver is the session-facing view of a placement backend.
type Solver struct {
	// Name is the registry name ("mg", "cbu", "utd", ...). A name that
	// heuristics.NewIncremental knows ("mg", "cbu") must resolve to that
	// heuristic: its session recomputes with the memoized engine and
	// never calls Solve.
	Name string
	// Policy is the access policy of produced placements.
	Policy core.Policy
	// Solve is the cold full solve.
	Solve SolveFunc
}

// ResolveFunc resolves a solver name (optionally policy-qualified) to a
// sessionable Solver. It fails for unknown names and for backends that
// cannot hold a session (bound solvers, multi-object solvers).
type ResolveFunc func(name string, policy core.Policy) (Solver, error)

// Options configures a Manager. The zero value (plus Resolve) is usable.
type Options struct {
	// Resolve maps solver names to backends (required).
	Resolve ResolveFunc
	// MaxSessions caps live instances (default 1024).
	MaxSessions int
	// TTL expires instances idle longer than this (0 = never). Instances
	// with attached watchers do not expire.
	TTL time.Duration
	// DiffRetention is the number of placement diffs kept per instance
	// for watch resume (default 512, min 1).
	DiffRetention int
	// DirtyThreshold is the dirty fraction of internal vertices above
	// which an incremental solver falls back to a cold full solve
	// (default 0.25): past it, rebuilding every memo in one sweep is
	// cheaper than chasing scattered root paths.
	DirtyThreshold float64
	// SolveTimeout caps each cold solve triggered by a delta when the
	// caller's context has no earlier deadline (default 60s).
	SolveTimeout time.Duration
	// Logger receives lifecycle lines. Nil discards.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.MaxSessions <= 0 {
		o.MaxSessions = 1024
	}
	if o.DiffRetention <= 0 {
		o.DiffRetention = 512
	}
	if o.DirtyThreshold <= 0 {
		o.DirtyThreshold = 0.25
	}
	if o.SolveTimeout <= 0 {
		o.SolveTimeout = 60 * time.Second
	}
	if o.Logger == nil {
		o.Logger = obs.NopLogger()
	}
	return o
}

// Stats is a snapshot of the manager counters, rendered as rp_session_*
// metrics by the service layer.
type Stats struct {
	Live              int
	Watchers          int
	Created           uint64
	Deleted           uint64
	Expired           uint64
	Deltas            uint64
	Ops               uint64
	IncrementalSolves uint64
	FullSolves        uint64
	Apply             obs.HistogramSnapshot
}

// Manager owns the live placement sessions.
//
// Lock order: m.mu may be taken alone or before a Session's mu; nothing
// may take m.mu while holding a Session's mu (Session.Apply runs under
// s.mu, so the per-delta counters below are atomics, not m.mu fields).
type Manager struct {
	opts Options

	mu       sync.Mutex
	sessions map[string]*Session
	pending  int // Create reservations not yet in sessions
	closed   bool

	created, deleted, expired uint64
	deltas, ops               atomic.Uint64
	incSolves, fullSolves     atomic.Uint64
	applyHist                 *obs.Histogram
	stopJanitor               chan struct{}
}

// NewManager starts a manager (and its TTL janitor when Options.TTL > 0).
func NewManager(opts Options) *Manager {
	m := &Manager{
		opts:        opts.withDefaults(),
		sessions:    map[string]*Session{},
		applyHist:   obs.NewHistogram(nil),
		stopJanitor: make(chan struct{}),
	}
	if m.opts.Resolve == nil {
		panic("session: Options.Resolve is required")
	}
	if m.opts.TTL > 0 {
		go m.janitor()
	}
	return m
}

// Close deletes every session and stops the janitor. Attached watchers
// are woken and their streams end with ErrClosed.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	close(m.stopJanitor)
	live := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		live = append(live, s)
	}
	m.sessions = map[string]*Session{}
	m.mu.Unlock()
	for _, s := range live {
		s.close()
	}
}

func (m *Manager) janitor() {
	period := m.opts.TTL / 4
	if period < time.Second {
		period = time.Second
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-m.stopJanitor:
			return
		case <-tick.C:
		}
		cutoff := time.Now().Add(-m.opts.TTL)
		m.mu.Lock()
		var expired []*Session
		for id, s := range m.sessions {
			if s.idleSince(cutoff) {
				delete(m.sessions, id)
				expired = append(expired, s)
				m.expired++
			}
		}
		m.mu.Unlock()
		for _, s := range expired {
			s.close()
			m.opts.Logger.Info("session expired", "id", s.id, "ttl", m.opts.TTL)
		}
	}
}

// Stats snapshots the manager counters. Session locks are only touched
// after m.mu is released (see the Manager lock order).
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	st := Stats{
		Live:    len(m.sessions),
		Created: m.created,
		Deleted: m.deleted,
		Expired: m.expired,
	}
	live := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		live = append(live, s)
	}
	m.mu.Unlock()
	st.Deltas = m.deltas.Load()
	st.Ops = m.ops.Load()
	st.IncrementalSolves = m.incSolves.Load()
	st.FullSolves = m.fullSolves.Load()
	st.Apply = m.applyHist.Snapshot()
	for _, s := range live {
		st.Watchers += s.watcherCount()
	}
	return st
}

// Create registers a placement instance and computes its initial
// placement (revision 1). The instance is deep-copied: later mutations of
// the caller's vectors do not leak in.
func (m *Manager) Create(ctx context.Context, in *core.Instance, solverName string, policy core.Policy) (*Session, error) {
	if in == nil {
		return nil, errors.New("session: instance required")
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	solver, err := m.opts.Resolve(solverName, policy)
	if err != nil {
		return nil, err
	}
	// Reserve a session slot before the initial solve (potentially a long
	// cold solve on a huge tree) so MaxSessions bounds in-flight create
	// work too, not just live instances.
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	if len(m.sessions)+m.pending >= m.opts.MaxSessions {
		m.mu.Unlock()
		return nil, ErrTooManySessions
	}
	m.pending++
	m.mu.Unlock()

	s := &Session{
		m:       m,
		id:      newID(),
		solver:  solver,
		in:      copyInstance(in),
		removed: make([]bool, in.Tree.Len()),
		notify:  make(chan struct{}),
		created: time.Now(),
	}
	s.lastUsed = s.created
	s.dirty = tree.NewDirtySet(s.in.Tree)
	s.reported = make([]bool, in.Tree.Len())
	s.inc = heuristics.NewIncremental(solver.Name)
	if err := s.initialSolve(ctx); err != nil {
		m.mu.Lock()
		m.pending--
		m.mu.Unlock()
		return nil, err
	}

	m.mu.Lock()
	m.pending--
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	m.sessions[s.id] = s
	m.created++
	m.mu.Unlock()
	m.fullSolves.Add(1)
	m.opts.Logger.Info("session created", "id", s.id, "solver", solver.Name,
		"vertices", in.Tree.Len(), "clients", in.Tree.NumClients())
	return s, nil
}

// Get returns the live session with the given id, touching its idle
// timer.
func (m *Manager) Get(id string) (*Session, error) {
	m.mu.Lock()
	s, ok := m.sessions[id]
	m.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	s.touch()
	return s, nil
}

// Delete removes and closes the session; attached watchers are woken and
// their streams end.
func (m *Manager) Delete(id string) error {
	m.mu.Lock()
	s, ok := m.sessions[id]
	if ok {
		delete(m.sessions, id)
		m.deleted++
	}
	m.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	s.close()
	return nil
}

// List snapshots the live sessions' statuses, ordered by id.
func (m *Manager) List() []Status {
	m.mu.Lock()
	live := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		live = append(live, s)
	}
	m.mu.Unlock()
	out := make([]Status, 0, len(live))
	for _, s := range live {
		out = append(out, s.Status())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // the system CSPRNG does not fail
	}
	return "pi-" + hex.EncodeToString(b[:])
}

// copyInstance deep-copies the parameter vectors (the tree is immutable
// and shared).
func copyInstance(in *core.Instance) *core.Instance {
	cp := &core.Instance{Tree: in.Tree}
	cp.R = append([]int64(nil), in.R...)
	cp.W = append([]int64(nil), in.W...)
	cp.S = append([]int64(nil), in.S...)
	if in.Q != nil {
		cp.Q = append([]int(nil), in.Q...)
	}
	if in.Comm != nil {
		cp.Comm = append([]int64(nil), in.Comm...)
	}
	if in.BW != nil {
		cp.BW = append([]int64(nil), in.BW...)
	}
	return cp
}
