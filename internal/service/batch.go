package service

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/tree"
)

// MaxBatchVariations bounds the number of parameter vectors accepted by
// one SolveBatch call.
const MaxBatchVariations = 4096

// BatchVariation is one parameter vector of a batch request. Nil vectors
// inherit the base instance's; a present vector fully replaces it.
type BatchVariation struct {
	R    []int64 `json:"requests,omitempty"`
	W    []int64 `json:"capacities,omitempty"`
	S    []int64 `json:"storage_costs,omitempty"`
	Q    []int   `json:"qos,omitempty"`
	Comm []int64 `json:"comm,omitempty"`
	BW   []int64 `json:"bandwidth,omitempty"`
}

// BatchRequest names one batched computation: one solver applied to N
// parameter variations of a single topology. The tree is preprocessed
// once (and typically interned across requests — see Engine.InternTree);
// only the parameter vectors differ per variation.
type BatchRequest struct {
	// Base supplies the topology and the default parameter vectors.
	Base *core.Instance
	// Solver and Policy resolve against the registry exactly as in
	// Request.
	Solver string
	Policy core.Policy
	// Options apply to every variation.
	Options Options
	// Variations are the per-item parameter overrides. An empty
	// BatchVariation solves the base instance itself.
	Variations []BatchVariation
}

// BatchItem is the outcome of one variation of a batch.
type BatchItem struct {
	// Index is the variation's position in BatchRequest.Variations.
	Index int
	// Response is the per-variation result; nil when Err is set.
	Response *Response
	// Err is the per-variation failure (validation, timeout, ...). One
	// item failing does not abort the rest of the batch.
	Err error
}

// SolveBatch schedules every variation of the request on the worker pool
// and delivers results in completion order — not index order — so a
// streaming caller can flush each item as soon as it is solved.
// Identical variations coalesce through the engine's single-flight cache
// like any other requests. SolveBatch returns after the last variation
// has been delivered; per-variation failures (including deadline expiry)
// are reported on their BatchItem, not as the batch error.
func (e *Engine) SolveBatch(ctx context.Context, req BatchRequest, deliver func(BatchItem)) error {
	if req.Base == nil {
		return errors.New("service: batch request without base instance")
	}
	if err := req.Base.Validate(); err != nil {
		return err
	}
	if len(req.Variations) == 0 {
		return errors.New("service: batch request without variations")
	}
	if len(req.Variations) > MaxBatchVariations {
		return fmt.Errorf("service: batch limited to %d variations, got %d",
			MaxBatchVariations, len(req.Variations))
	}
	if _, ok := e.opts.Registry.Resolve(req.Solver, req.Policy); !ok {
		return &ErrUnknownSolver{Name: req.Solver}
	}

	results := make(chan BatchItem)
	for i := range req.Variations {
		go func(i int) {
			item := BatchItem{Index: i}
			resp, err := e.Solve(ctx, Request{
				Instance: req.Variations[i].instance(req.Base),
				Solver:   req.Solver,
				Policy:   req.Policy,
				Options:  req.Options,
			})
			item.Response, item.Err = resp, err
			results <- item
		}(i)
	}
	for range req.Variations {
		item := <-results
		if deliver != nil {
			deliver(item)
		}
	}
	return nil
}

// runBatch is the one batch runner behind /v1/batch and batch jobs.
// With a router (a coordinator's pool) the batch is routed across the
// shards and emit sees lines in index order; without one the engine
// solves it and emit sees lines in completion order. After emit first
// fails, later lines are dropped and runBatch returns that error.
func runBatch(ctx context.Context, e *Engine, router BatchRouter, base *core.Instance, policy core.Policy, req *BatchPayload, emit func(BatchLine) error) error {
	if router != nil {
		return router.RouteBatch(ctx, e, base, policy, req, emit)
	}
	var emitErr error
	err := e.SolveBatch(ctx, BatchRequest{
		Base:       base,
		Solver:     req.Solver,
		Policy:     policy,
		Options:    req.Options.options(),
		Variations: req.Variations,
	}, func(item BatchItem) {
		if emitErr != nil {
			return
		}
		line := BatchLine{Index: item.Index, Response: item.Response}
		if item.Err != nil {
			line.Error = item.Err.Error()
		}
		emitErr = emit(line)
	})
	if err != nil {
		return err
	}
	return emitErr
}

// IsTransientLineError reports whether a BatchLine.Error depends on load
// or lifecycle (a per-solve deadline, a cancellation, a draining engine)
// rather than on the variation itself. Such a row is retried, never
// frozen into a job checkpoint. The text is all a row relayed over the
// wire carries; the sentinels are stable stdlib and service messages.
func IsTransientLineError(msg string) bool {
	return strings.Contains(msg, context.DeadlineExceeded.Error()) ||
		strings.Contains(msg, context.Canceled.Error()) ||
		strings.Contains(msg, ErrEngineClosed.Error())
}

// Apply builds the variation's instance over the base — exported for
// the cluster router, which probes the coordinator cache per variation
// before deciding what to ship to the shards.
func (v *BatchVariation) Apply(base *core.Instance) *core.Instance {
	return v.instance(base)
}

// instance builds the variation's instance over the base, sharing the
// preprocessed tree and every vector the variation does not override.
func (v *BatchVariation) instance(base *core.Instance) *core.Instance {
	in := &core.Instance{
		Tree: base.Tree,
		R:    base.R,
		W:    base.W,
		S:    base.S,
		Q:    base.Q,
		Comm: base.Comm,
		BW:   base.BW,
	}
	if v.R != nil {
		in.R = v.R
	}
	if v.W != nil {
		in.W = v.W
	}
	if v.S != nil {
		in.S = v.S
	}
	if v.Q != nil {
		in.Q = v.Q
	}
	if v.Comm != nil {
		in.Comm = v.Comm
	}
	if v.BW != nil {
		in.BW = v.BW
	}
	return in
}

// treeCache is a small LRU of preprocessed trees keyed by the shape
// section of the canonical hash, so repeated batch requests over one
// topology pay the Euler-tour build once.
type treeCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*treeCacheEntry
	lru     *list.List // of string keys, front = most recent

	hits, misses uint64
}

type treeCacheEntry struct {
	tree *tree.Tree
	elem *list.Element
}

// maxInternedTrees bounds the engine's topology cache. A preprocessed
// tree is a handful of int slices, so this is at most a few MB.
const maxInternedTrees = 128

func newTreeCache(max int) *treeCache {
	return &treeCache{max: max, entries: map[string]*treeCacheEntry{}, lru: list.New()}
}

// InternTree returns the preprocessed tree for the given shape, reusing a
// cached one when the same topology (by canonical shape hash) was seen
// before. The returned tree is shared and immutable.
func (e *Engine) InternTree(parents []int, isClient []bool) (*tree.Tree, error) {
	key := ShapeKey(parents, isClient)
	tc := e.trees
	tc.mu.Lock()
	if ent, ok := tc.entries[key]; ok {
		tc.hits++
		tc.lru.MoveToFront(ent.elem)
		t := ent.tree
		tc.mu.Unlock()
		return t, nil
	}
	tc.misses++
	tc.mu.Unlock()

	// Build outside the lock: FromParents is the expensive part being
	// amortized. Concurrent first requests for one shape may build twice;
	// the last one wins, which is harmless (trees are immutable).
	t, err := tree.FromParents(parents, isClient)
	if err != nil {
		return nil, err
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if ent, ok := tc.entries[key]; ok {
		tc.lru.MoveToFront(ent.elem)
		return ent.tree, nil
	}
	ent := &treeCacheEntry{tree: t, elem: tc.lru.PushFront(key)}
	tc.entries[key] = ent
	for tc.lru.Len() > tc.max {
		tail := tc.lru.Back()
		tc.lru.Remove(tail)
		delete(tc.entries, tail.Value.(string))
	}
	return t, nil
}

// stats returns the tree-interning counters.
func (tc *treeCache) stats() (hits, misses uint64, entries int) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.hits, tc.misses, tc.lru.Len()
}
