package session

import (
	"context"
	"time"

	"repro/internal/core"
)

// Status is a point-in-time summary of a session.
type Status struct {
	ID             string `json:"id"`
	Solver         string `json:"solver"`
	Policy         string `json:"policy"`
	Rev            uint64 `json:"rev"`
	FirstRev       uint64 `json:"first_rev"` // oldest revision watchers can still replay
	Vertices       int    `json:"vertices"`
	Clients        int    `json:"clients"`
	RemovedClients int    `json:"removed_clients,omitempty"`
	Cost           int64  `json:"cost"`
	ReplicaCount   int    `json:"replica_count"`
	NoSolution     bool   `json:"no_solution,omitempty"`
	Watchers       int    `json:"watchers"`
	Deltas         uint64 `json:"deltas"`
}

// Status snapshots the session.
func (s *Session) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Status{
		ID:             s.id,
		Solver:         s.solver.Name,
		Policy:         s.solver.Policy.String(),
		Rev:            s.rev,
		FirstRev:       s.firstRev,
		Vertices:       s.in.Tree.Len(),
		Clients:        s.in.Tree.NumClients() - s.nRemoved,
		RemovedClients: s.nRemoved,
		Cost:           s.cost,
		ReplicaCount:   s.nReported,
		NoSolution:     s.noSolution,
		Watchers:       s.watchers,
		Deltas:         s.deltas,
	}
}

// Replicas returns the current replica set, ascending.
func (s *Session) Replicas() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replicasLocked()
}

// Solution returns the current full assignment (materialized from the
// memos for incremental solvers) and whether one exists. The returned
// solution is private to the caller.
func (s *Session) Solution() (*core.Solution, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.noSolution {
		return nil, false
	}
	if s.inc != nil {
		return s.inc.Solution(), true
	}
	return s.sol, s.sol != nil
}

// InstanceCopy returns a deep copy of the current (mutated) instance —
// the input a cold solve equivalent to the session's state would take.
func (s *Session) InstanceCopy() *core.Instance {
	s.mu.Lock()
	defer s.mu.Unlock()
	return copyInstance(s.in)
}

// Watch streams placement diffs to send until ctx ends, the session
// closes (ErrClosed), or send fails. Semantics:
//
//   - Without a resume point (haveFrom false) the stream opens with a
//     synthetic snapshot diff — the full current replica set under the
//     current revision — then continues live.
//   - With fromRev = N it replays the retained diffs for revisions N+1..
//     current, then continues live. N ahead of the current revision is
//     ErrFutureRev; N+1 older than the retention window is ErrStaleRev
//     (the caller must re-sync from a snapshot).
//
// send is called without the session lock held; a slow watcher that falls
// behind the retention window mid-stream gets ErrStaleRev.
func (s *Session) Watch(ctx context.Context, fromRev uint64, haveFrom bool, send func(Diff) error) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	var cursor uint64
	var opening []Diff
	if haveFrom {
		if fromRev > s.rev {
			s.mu.Unlock()
			return ErrFutureRev
		}
		if fromRev+1 < s.firstRev {
			s.mu.Unlock()
			return ErrStaleRev
		}
		cursor = fromRev
	} else {
		opening = []Diff{{Rev: s.rev, Add: s.replicasLocked(), Cost: s.cost, NoSolution: s.noSolution}}
		cursor = s.rev
	}
	s.watchers++
	s.lastUsed = time.Now()
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.watchers--
		s.lastUsed = time.Now()
		s.mu.Unlock()
	}()

	for _, d := range opening {
		if err := send(d); err != nil {
			return err
		}
	}
	for {
		s.mu.Lock()
		closed := s.closed
		var batch []Diff
		for r := cursor + 1; r <= s.rev; r++ {
			d, ok := s.diffAt(r)
			if !ok {
				s.mu.Unlock()
				return ErrStaleRev
			}
			batch = append(batch, d)
		}
		ch := s.notify
		s.mu.Unlock()
		for _, d := range batch {
			if err := send(d); err != nil {
				return err
			}
			cursor = d.Rev
		}
		if len(batch) > 0 {
			continue // more may have arrived while sending
		}
		if closed {
			return ErrClosed
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}
