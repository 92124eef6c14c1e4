package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
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

// Kinds bundles the job kinds a coordinator registers in place of the
// local ones: the sharded campaign kind, and the batch kind routed
// through the pool exactly as an inline /v1/batch is (Pool.RouteBatch).
func Kinds(e *service.Engine, p *Pool) []jobs.Kind {
	return []jobs.Kind{CampaignKind(p), service.BatchJobKind(e, p)}
}
