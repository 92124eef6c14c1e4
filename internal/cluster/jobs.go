package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/service"
)

// decodeCampaignPayload strictly decodes a campaign job payload.
func decodeCampaignPayload(payload json.RawMessage) (experiments.Config, error) {
	var cfg experiments.Config
	if len(payload) == 0 {
		return cfg, fmt.Errorf("cluster: campaign job without config")
	}
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return cfg, fmt.Errorf("cluster: bad campaign config: %w", err)
	}
	return cfg, nil
}

// CampaignKind is the sharded replacement for jobs.CampaignKind,
// registered under the same name so the /v1/jobs API is identical on a
// coordinator. Each λ row is computed remotely as a StartRow/EndRow
// slice of the persisted (normalized) config; rows land in the
// append-only log keyed by their absolute index as they complete, in
// whatever order the shards finish. On resume — daemon restart, shard
// death, transient failure — only the missing indices are resubmitted,
// and because row content is deterministic in (config, index), the
// merged result is byte-identical to a single-process run.
func CampaignKind(p *Pool) jobs.Kind {
	return jobs.Kind{
		Name: jobs.CampaignKindName,
		Prepare: func(payload json.RawMessage) (json.RawMessage, int, error) {
			cfg, err := decodeCampaignPayload(payload)
			if err != nil {
				return nil, 0, err
			}
			cfg = cfg.Normalized()
			if cfg.StartRow != 0 || cfg.EndRow != 0 {
				return nil, 0, fmt.Errorf("cluster: campaign jobs manage StartRow/EndRow themselves; submit without them")
			}
			norm, err := json.Marshal(cfg)
			if err != nil {
				return nil, 0, err
			}
			return norm, len(cfg.Lambdas), nil
		},
		Run: func(ctx context.Context, payload json.RawMessage, prior []json.RawMessage, sink func(json.RawMessage) error) error {
			cfg, err := decodeCampaignPayload(payload)
			if err != nil {
				return err
			}
			total := len(cfg.Lambdas)
			done := make([]bool, total)
			for i, raw := range prior {
				idx, _, err := jobs.CampaignRowIndex(raw, i)
				if err != nil {
					return err
				}
				if idx >= 0 && idx < total {
					done[idx] = true
				}
			}
			var missing []int
			for idx := range done {
				if !done[idx] {
					missing = append(missing, idx)
				}
			}

			// A bounded worker set sized to the pool's admission width:
			// more goroutines than in-flight slots would only spin on the
			// acquire/backoff loop, not add parallelism. Membership is
			// dynamic, so a monitor watches the pool epoch and grows the
			// set when shards join mid-job — a campaign started on one
			// worker spreads onto a hot-registered second without a
			// restart. (Shrinking is implicit: surplus goroutines just
			// wait on the acquire loop, and rows lost to a departed
			// shard fail over through the pool like any other failure.)
			var (
				mu      sync.Mutex
				wg      sync.WaitGroup
				sinkErr error
				rowErr  error
				failed  int
			)
			next := make(chan int)
			runWorker := func() {
				defer wg.Done()
				for idx := range next {
					row, err := p.CampaignRow(ctx, cfg, idx)
					mu.Lock()
					if err != nil {
						failed++
						if rowErr == nil {
							rowErr = err
						}
						mu.Unlock()
						continue
					}
					if sinkErr != nil || ctx.Err() != nil {
						mu.Unlock()
						continue // the job is over; don't checkpoint past it
					}
					data, err := json.Marshal(jobs.IndexedCampaignRow{Index: idx, Row: row})
					if err == nil {
						err = sink(data)
					}
					if err != nil {
						sinkErr = err
					}
					mu.Unlock()
				}
			}
			targetWorkers := func() int {
				w := p.Width()
				if w > len(missing) {
					w = len(missing)
				}
				if w < 1 {
					w = 1 // an empty pool still fails fast instead of hanging
				}
				return w
			}
			started := targetWorkers()
			wg.Add(started)
			for w := 0; w < started; w++ {
				go runWorker()
			}
			stopGrow := make(chan struct{})
			var growWG sync.WaitGroup
			growWG.Add(1)
			go func() {
				defer growWG.Done()
				epoch := p.Epoch()
				t := time.NewTicker(100 * time.Millisecond)
				defer t.Stop()
				for {
					select {
					case <-stopGrow:
						return
					case <-t.C:
					}
					if e := p.Epoch(); e != epoch {
						epoch = e
						for started < targetWorkers() {
							started++
							wg.Add(1)
							go runWorker()
						}
					}
				}
			}()
			for _, idx := range missing {
				select {
				case next <- idx:
				case <-ctx.Done():
					// Stop feeding; queued workers drain what's left of
					// the channel (nothing) after close below.
					close(stopGrow)
					growWG.Wait()
					close(next)
					wg.Wait()
					return ctx.Err()
				}
			}
			close(stopGrow)
			growWG.Wait()
			close(next)
			wg.Wait()
			if err := ctx.Err(); err != nil {
				return err // cancellation/shutdown keep their semantics
			}
			if sinkErr != nil {
				return sinkErr
			}
			if failed > 0 {
				return fmt.Errorf("cluster: %d campaign row(s) failed (completed rows are checkpointed; a resume recomputes only the missing ones): %w", failed, rowErr)
			}
			return nil
		},
	}
}

// maxChunk bounds one sub-batch posted to a shard. Smaller chunks lose
// less work to a dying shard; larger ones amortize the HTTP round trip.
const maxChunk = 64

// batchRounds bounds how many no-progress partition rounds a sharded
// batch job tolerates before failing (completed rows stay checkpointed).
const batchRounds = 3

// BatchKind is the sharded replacement for service.BatchJobKind: the
// variation indices still missing from the checkpoint are partitioned
// into chunks, each chunk runs on one shard as a wire FrameBatch, and every
// streamed line is persisted under its absolute index the moment it
// arrives. A chunk cut short by a dying shard therefore loses nothing
// already streamed; the next round simply re-partitions the remainder
// across the shards that are still healthy. Deterministic per-variation
// failures are persisted as error rows (matching the single-process
// kind); transient ones — worker deadline or shutdown — stay missing
// and are retried.
func BatchKind(e *service.Engine, p *Pool) jobs.Kind {
	return jobs.Kind{
		Name: service.BatchKindName,
		Prepare: func(payload json.RawMessage) (json.RawMessage, int, error) {
			req, err := service.DecodeBatchPayload(payload)
			if err != nil {
				return nil, 0, err
			}
			if _, _, err := req.Build(e); err != nil {
				return nil, 0, err
			}
			return payload, len(req.Variations), nil
		},
		Run: func(ctx context.Context, payload json.RawMessage, prior []json.RawMessage, sink func(json.RawMessage) error) error {
			req, err := service.DecodeBatchPayload(payload)
			if err != nil {
				return err
			}
			done := make(map[int]bool, len(prior))
			for _, raw := range prior {
				var line service.BatchLine
				if err := json.Unmarshal(raw, &line); err != nil {
					return fmt.Errorf("cluster: corrupt batch job row: %w", err)
				}
				done[line.Index] = true
			}
			missing := missingIndices(len(req.Variations), done)

			var (
				mu      sync.Mutex
				sinkErr error
			)
			for round := 0; len(missing) > 0; {
				if err := ctx.Err(); err != nil {
					return err
				}
				var (
					wg      sync.WaitGroup
					callErr error
				)
				// Re-partitioned per round against the *current* weights
				// and membership: shards that joined since the last round
				// get chunks, departed ones stop being counted.
				for _, chunk := range p.partitionWeighted(missing) {
					sub := *req
					// A coordinator registry resolves "<x>@remote" (so the
					// payload validated), but workers only know local
					// names: forward the local twin.
					sub.Solver = StripRemoteSuffix(req.Solver)
					sub.Variations = make([]service.BatchVariation, len(chunk))
					for i, abs := range chunk {
						sub.Variations[i] = req.Variations[abs]
					}
					wg.Add(1)
					go func(chunk []int, sub service.BatchPayload) {
						defer wg.Done()
						err := p.BatchChunk(ctx, &sub, func(line service.BatchLine) {
							if line.Index < 0 || line.Index >= len(chunk) {
								// A shard answering for variations it was
								// never sent (version skew, misconfigured
								// endpoint) must not crash the coordinator.
								mu.Lock()
								if callErr == nil {
									callErr = fmt.Errorf("cluster: shard answered out-of-range batch index %d (chunk of %d)", line.Index, len(chunk))
								}
								mu.Unlock()
								return
							}
							abs := chunk[line.Index]
							mu.Lock()
							defer mu.Unlock()
							if done[abs] || sinkErr != nil || ctx.Err() != nil {
								return
							}
							if line.Error != "" && isTransientLineError(line.Error) {
								return // leave missing; the next round recomputes it
							}
							line.Index = abs
							// AppendJSON, not Marshal: wire-routed lines
							// carry their body as raw bytes (BatchLine.Raw)
							// that a plain Marshal would drop.
							data, err := line.AppendJSON(nil)
							if err == nil {
								err = sink(data)
							}
							if err != nil {
								sinkErr = err
								return
							}
							done[abs] = true
						})
						if err != nil {
							mu.Lock()
							if callErr == nil {
								callErr = err
							}
							mu.Unlock()
						}
					}(chunk, sub)
				}
				wg.Wait()
				mu.Lock()
				serr := sinkErr
				mu.Unlock()
				if serr != nil {
					return serr
				}
				if err := ctx.Err(); err != nil {
					return err
				}
				remaining := missingIndices(len(req.Variations), done)
				if len(remaining) >= len(missing) {
					round++
					if round >= batchRounds {
						if callErr == nil {
							callErr = fmt.Errorf("cluster: %d variation(s) failed transiently on every shard", len(remaining))
						}
						return fmt.Errorf("cluster: batch stalled with %d of %d variations missing (completed rows are checkpointed): %w",
							len(remaining), len(req.Variations), callErr)
					}
				} else {
					round = 0
				}
				missing = remaining
			}
			return nil
		},
	}
}

func missingIndices(total int, done map[int]bool) []int {
	var out []int
	for i := 0; i < total; i++ {
		if !done[i] {
			out = append(out, i)
		}
	}
	return out
}

// isTransientLineError classifies a worker's per-variation error string
// the way service.BatchJobKind classifies the underlying errors: rows
// that failed from load or lifecycle (deadline, shutdown) must not be
// frozen into the checkpoint as permanent failures. String matching is
// all the wire gives us; the sentinels are stable stdlib/service text.
func isTransientLineError(msg string) bool {
	return strings.Contains(msg, context.DeadlineExceeded.Error()) ||
		strings.Contains(msg, context.Canceled.Error()) ||
		strings.Contains(msg, "engine closed")
}

// Kinds bundles the two sharded job kinds a coordinator registers in
// place of the local ones.
func Kinds(e *service.Engine, p *Pool) []jobs.Kind {
	return []jobs.Kind{CampaignKind(p), BatchKind(e, p)}
}
