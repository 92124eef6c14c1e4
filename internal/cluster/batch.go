package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/service"
)

// replayRouteRow rehydrates a memoized raw row for a short-circuited
// variation. First-time rows relay the worker's bytes verbatim, but a
// replay must not impersonate a fresh solve: the client should see
// cached:true and no stale worker timing, exactly like an engine-cache
// hit. Decoding here costs nothing that matters — the replay path does
// no network, so it is already orders of magnitude cheaper than a
// shard hop. A body that fails to parse reports a miss, and the row
// ships to a shard like any other.
func replayRouteRow(body []byte) *service.Response {
	var resp service.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil
	}
	resp.Cached = true
	resp.ElapsedMS = 0
	return &resp
}

// RouteBatch implements service.BatchRouter: one inline /v1/batch
// request executed across the cluster. The variation indices are
// partitioned into chunks sized to the pool's total weight, each chunk
// runs on one shard (the weighted picker prefers heavier shards), and
// every streamed line is re-indexed to its absolute position and
// released to deliver strictly in request order. Work a chunk loses to
// a dying shard is re-partitioned over the survivors the next round;
// whatever the cluster cannot take at all — breakers all open, the
// pool emptied by deregistrations — is computed on the coordinator's
// own engine, so the inline path degrades to exactly the pre-cluster
// behavior instead of failing.
func (p *Pool) RouteBatch(ctx context.Context, e *service.Engine, base *core.Instance, policy core.Policy, req *service.BatchPayload, deliver func(service.BatchLine) error) (rerr error) {
	p.batchesRouted.Add(1)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	total := len(req.Variations)
	ctx, span := obs.StartSpan(ctx, "cluster.route_batch")
	span.SetAttr("solver", req.Solver)
	span.SetAttrInt("variations", total)
	defer func() { span.SetError(rerr); span.End() }()
	type bufferedLine struct {
		line service.BatchLine
		at   time.Time // when the line completed and entered the buffer
	}
	var (
		mu      sync.Mutex
		pending = map[int]bufferedLine{} // buffered out-of-order lines
		next    int                      // lowest index not yet delivered
		done    = make(map[int]bool, total)
		sinkErr error
	)
	// emit buffers the line and flushes the contiguous prefix, so the
	// stream is ordered by variation index no matter which shard (or
	// the local engine) finished first. The buffered time feeds the
	// reorder-wait histogram: how long finished lines sat waiting for
	// earlier indices. Callers hold mu.
	emit := func(line service.BatchLine) {
		if sinkErr != nil || done[line.Index] {
			return
		}
		done[line.Index] = true
		pending[line.Index] = bufferedLine{line: line, at: time.Now()}
		for {
			l, ok := pending[next]
			if !ok {
				return
			}
			delete(pending, next)
			next++
			p.reorderWait.Observe(time.Since(l.at))
			if err := deliver(l.line); err != nil {
				sinkErr = err
				cancel() // the client is gone; stop burning shards
				return
			}
		}
	}

	remoteSolver := StripRemoteSuffix(req.Solver)

	// Cache-aware routing: before any variation ships to a shard, probe
	// the coordinator's own caches — the engine's solution cache (rows
	// this process once solved locally) and the routed raw-row cache
	// (rows a shard solved and the coordinator relayed without
	// decoding). Hits are emitted straight into the reorder buffer and
	// only the misses are partitioned, so a batch that repeats work the
	// cluster has seen costs no network at all for the repeats. The
	// raw-row key of every miss is kept: when its row comes back over
	// the wire, the raw bytes are memoized under it. Unlike the engine
	// cache — which stores a Result and shapes the Response per request
	// — the raw cache stores serialized bytes, whose content depends on
	// IncludeSolution; routeKey folds that flag in so the two body
	// shapes never answer for each other.
	keys := make([]string, total)
	if !req.Options.NoCache {
		probeSpan := obs.StartLeaf(ctx, "cluster.cache_probe")
		hits := 0
		engineOpts := req.EngineOptions()
		for i := range req.Variations {
			key, resp, ok := e.CacheProbe(service.Request{
				Instance: req.Variations[i].Apply(base),
				Solver:   remoteSolver,
				Policy:   policy,
				Options:  engineOpts,
			})
			keys[i] = routeKey(key, engineOpts.IncludeSolution)
			if ok {
				p.batchCacheShort.Add(1)
				hits++
				mu.Lock()
				emit(service.BatchLine{Index: i, Response: resp})
				mu.Unlock()
				continue
			}
			if body, hit := p.routeCache.get(keys[i]); hit {
				if resp := replayRouteRow(body); resp != nil {
					p.batchCacheShort.Add(1)
					hits++
					mu.Lock()
					emit(service.BatchLine{Index: i, Response: resp})
					mu.Unlock()
				}
			}
		}
		probeSpan.SetAttrInt("hits", hits)
		probeSpan.End()
	}

	mu.Lock()
	if sinkErr != nil {
		defer mu.Unlock()
		return sinkErr
	}
	missing := missingIndices(total, done)
	mu.Unlock()

	for round := 0; len(missing) > 0 && p.ShardCount() > 0; {
		if ctx.Err() != nil {
			break
		}
		var wg sync.WaitGroup
		for _, chunk := range p.partitionWeighted(missing) {
			sub := *req
			sub.Solver = remoteSolver // workers register local names only
			sub.Variations = make([]service.BatchVariation, len(chunk))
			for i, abs := range chunk {
				sub.Variations[i] = req.Variations[abs]
			}
			wg.Add(1)
			go func(chunk []int, sub service.BatchPayload) {
				defer wg.Done()
				// Chunk failures are not reported upward: the next round
				// re-partitions whatever is still missing, and the local
				// fallback is the terminal safety net.
				cctx, chunkSpan := obs.StartSpan(ctx, "cluster.batch_chunk")
				chunkSpan.SetAttrInt("rows", len(chunk))
				chunkStart := time.Now()
				err := p.BatchChunk(cctx, &sub, func(line service.BatchLine) {
					if line.Index < 0 || line.Index >= len(chunk) {
						return // a confused shard must not crash the stream
					}
					if line.Error != "" && service.IsTransientLineError(line.Error) {
						return // leave missing; retried next round or locally
					}
					line.Index = chunk[line.Index]
					mu.Lock()
					if !done[line.Index] {
						p.rowsRouted.Add(1)
						if line.Error == "" && len(line.Raw) > 0 {
							// Memoize the raw row so a repeated inline
							// batch short-circuits instead of re-shipping.
							p.routeCache.add(keys[line.Index], line.Raw)
						}
					}
					emit(line)
					mu.Unlock()
				})
				chunkSpan.SetError(err)
				chunkSpan.End()
				if err == nil {
					p.batchChunk.Observe(time.Since(chunkStart))
				}
			}(chunk, sub)
		}
		wg.Wait()
		mu.Lock()
		serr := sinkErr
		remaining := missingIndices(total, done)
		mu.Unlock()
		if serr != nil {
			return serr
		}
		if len(remaining) >= len(missing) {
			round++
			if round >= batchRounds {
				break // the cluster is not making progress; go local
			}
		} else {
			round = 0
		}
		missing = remaining
	}

	if err := ctx.Err(); err != nil {
		mu.Lock()
		serr := sinkErr
		mu.Unlock()
		if serr != nil {
			return serr
		}
		return err
	}

	// Local fallback for whatever the shards never answered. The solver
	// name is the stripped one: an @remote twin would loop the work
	// straight back into the pool that just failed it.
	mu.Lock()
	remaining := missingIndices(total, done)
	mu.Unlock()
	if len(remaining) > 0 {
		p.rowsLocalFallback.Add(uint64(len(remaining)))
		vars := make([]service.BatchVariation, len(remaining))
		for i, abs := range remaining {
			vars[i] = req.Variations[abs]
		}
		err := e.SolveBatch(ctx, service.BatchRequest{
			Base:       base,
			Solver:     remoteSolver,
			Policy:     policy,
			Options:    req.EngineOptions(),
			Variations: vars,
		}, func(item service.BatchItem) {
			line := service.BatchLine{Index: remaining[item.Index], Response: item.Response}
			if item.Err != nil {
				line.Error = item.Err.Error()
			}
			mu.Lock()
			emit(line)
			mu.Unlock()
		})
		if err != nil {
			return err
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if sinkErr != nil {
		return sinkErr
	}
	if next != total {
		// Impossible unless a line was lost to a programming error;
		// fail loudly rather than truncate a "complete" stream.
		return fmt.Errorf("cluster: routed batch delivered %d of %d lines", next, total)
	}
	return nil
}

// maxChunk bounds one sub-batch posted to a shard. Smaller chunks lose
// less work to a dying shard; larger ones amortize the round trip.
const maxChunk = 64

// batchRounds bounds how many no-progress partition rounds a routed
// batch tolerates before computing the rest on the coordinator.
const batchRounds = 3

func missingIndices(total int, done map[int]bool) []int {
	var out []int
	for i := 0; i < total; i++ {
		if !done[i] {
			out = append(out, i)
		}
	}
	return out
}

// partitionWeighted splits the indices into chunks for one fan-out
// round, sized so roughly two chunks exist per unit of total shard
// weight: heavier pools get more, smaller chunks (less work lost to a
// dying shard, finer weighted spreading), and chunk size never exceeds
// maxChunk. Chunks are not pinned to shards — the weighted picker
// assigns them as capacity frees up, which is what balances a slow
// shard against a fast one.
func (p *Pool) partitionWeighted(indices []int) [][]int {
	if len(indices) == 0 {
		return nil
	}
	slots := 2 * p.TotalWeight()
	if slots < 2 {
		slots = 2
	}
	size := (len(indices) + slots - 1) / slots
	if size < 1 {
		size = 1
	}
	if size > maxChunk {
		size = maxChunk
	}
	var out [][]int
	for start := 0; start < len(indices); start += size {
		end := start + size
		if end > len(indices) {
			end = len(indices)
		}
		out = append(out, indices[start:end])
	}
	return out
}

// interface conformance (compile-time).
var (
	_ service.ClusterInfo          = (*Pool)(nil)
	_ service.ClusterMembership    = (*Pool)(nil)
	_ service.ClusterStatsProvider = (*Pool)(nil)
	_ service.BatchRouter          = (*Pool)(nil)
	_ service.ClusterLatencies     = (*Pool)(nil)
)
