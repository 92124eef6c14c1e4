package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/cluster/wire"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/service"
)

// permanentError marks a failure the shard answered deliberately (a
// FlagPermanent FrameError, the analogue of an HTTP 4xx): retrying it
// elsewhere would fail identically, so the pool neither fails over nor
// opens the shard's breaker.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

func isPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// readErrorBody extracts {"error": "..."} from an error response,
// falling back to the raw (truncated) body.
func readErrorBody(r io.Reader) string {
	data, _ := io.ReadAll(io.LimitReader(r, 4<<10))
	var payload struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &payload) == nil && payload.Error != "" {
		return payload.Error
	}
	return string(bytes.TrimSpace(data))
}

// ping probes one shard's /v1/worker/ping. A healthy answer reports
// the worker's solver goroutine count; it becomes the shard's placement
// weight unless the operator pinned one explicitly at registration, so
// heterogeneous shards weight themselves without configuration.
func (p *Pool) ping(ctx context.Context, s *shard) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.addr+"/v1/worker/ping", nil)
	if err != nil {
		return err
	}
	resp, err := p.opts.Client.Do(req)
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: ping %s: status %d", s.addr, resp.StatusCode)
	}
	var payload struct {
		Workers int `json:"workers"`
	}
	if json.Unmarshal(body, &payload) == nil && payload.Workers > 0 {
		if s.setWeight(payload.Workers, false, p.opts.MaxInFlight) {
			p.epoch.Add(1) // a re-weight changes placement like a join does
		}
	}
	// A live worker resets the expiry clock.
	s.mu.Lock()
	s.missedProbes = 0
	s.mu.Unlock()
	return nil
}

// Ping probes every shard once (useful at startup to log reachability).
// It never fails the pool — unreachable shards simply stay open until
// the prober or live traffic recovers them.
func (p *Pool) Ping(ctx context.Context) map[string]error {
	shards := p.snapshot()
	out := make(map[string]error, len(shards))
	for _, s := range shards {
		out[s.addr] = p.ping(ctx, s)
	}
	return out
}

// wireOptions mirrors the /v1/solve options wire shape.
type wireOptions struct {
	TimeoutMS       int64                   `json:"timeout_ms,omitempty"`
	NoCache         bool                    `json:"no_cache,omitempty"`
	BoundNodes      int                     `json:"bound_nodes,omitempty"`
	IncludeSolution bool                    `json:"include_solution,omitempty"`
	Objects         []service.ObjectVectors `json:"objects,omitempty"`
}

// solveWire is the /v1/solve request body, which FrameSolve carries.
type solveWire struct {
	Instance *core.Instance `json:"instance"`
	Solver   string         `json:"solver"`
	Policy   string         `json:"policy"`
	Options  wireOptions    `json:"options"`
}

// remoteTimeout derives the worker-side deadline from the caller's
// context, shaved slightly so the worker's timeout fires first and the
// coordinator gets a clean answer instead of a cut connection.
func remoteTimeout(ctx context.Context) int64 {
	deadline, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	remaining := time.Until(deadline)
	ms := int64(remaining*9/10) / int64(time.Millisecond)
	if ms < 1 {
		// Never 0: omitempty would drop the field and the worker would
		// fall back to its own (much longer) default deadline.
		ms = 1
	}
	return ms
}

// wireOne runs an exchange whose answer is exactly one row and decodes
// that row's JSON body into v.
func (p *Pool) wireOne(ctx context.Context, s *shard, typ byte, payload []byte, v any) error {
	rows := 0
	err := p.wireDo(ctx, s, typ, payload, func(_ int, msg string, body []byte) error {
		rows++
		if msg != "" {
			return fmt.Errorf("cluster: %s wire: %s", s.addr, msg)
		}
		if err := json.Unmarshal(body, v); err != nil {
			return fmt.Errorf("cluster: %s wire: bad row: %w", s.addr, err)
		}
		return nil
	})
	if err == nil && rows != 1 {
		err = fmt.Errorf("cluster: %s wire: got %d rows, want 1", s.addr, rows)
	}
	return err
}

// Solve runs one request on the cluster: the pool picks a shard, sends
// the /v1/solve body as a FrameSolve, and fails over to another shard
// when one dies mid-call (solves are deterministic, hence idempotent).
func (p *Pool) Solve(ctx context.Context, in *core.Instance, solver string, policy core.Policy, opt service.Options) (*service.Response, error) {
	var out *service.Response
	err := p.do(ctx, true, func(ctx context.Context, s *shard) error {
		// Built per attempt: a failover retry must carry the deadline
		// remaining NOW, not the (much longer) one computed before the
		// first shard burned most of the budget.
		body, err := json.Marshal(solveWire{
			Instance: in,
			Solver:   solver,
			Policy:   policy.String(),
			Options: wireOptions{
				TimeoutMS:       remoteTimeout(ctx),
				BoundNodes:      opt.BoundNodes,
				NoCache:         opt.NoCache,
				IncludeSolution: true, // the coordinator rebuilds a full Result
				Objects:         opt.Objects,
			},
		})
		if err != nil {
			return &permanentError{err}
		}
		var resp service.Response
		if err := p.wireOne(ctx, s, wire.FrameSolve, body, &resp); err != nil {
			return err
		}
		out = &resp
		return nil
	})
	return out, err
}

// campaignWire is the /v1/campaign request body, which FrameCampaign
// carries.
type campaignWire struct {
	Config experiments.Config `json:"config"`
}

// CampaignRow computes exactly one λ row of the campaign on a shard,
// via the StartRow/EndRow slice of the config. Row generation seeds are
// tied to the absolute index, so the returned row is bit-identical to
// row `index` of a single-process run, whichever shard computes it —
// which also makes the call idempotent and safe to fail over.
func (p *Pool) CampaignRow(ctx context.Context, cfg experiments.Config, index int) (experiments.Row, error) {
	cfg.Progress, cfg.Context = nil, nil
	cfg.StartRow, cfg.EndRow = index, index+1
	body, err := json.Marshal(campaignWire{Config: cfg})
	if err != nil {
		return experiments.Row{}, err
	}
	var out experiments.Row
	err = p.do(ctx, true, func(ctx context.Context, s *shard) error {
		jobs.PostEvent(ctx, jobs.EventDispatch, fmt.Sprintf("campaign row %d on %s", index, s.addr))
		return p.wireOne(ctx, s, wire.FrameCampaign, body, &out)
	})
	return out, err
}

// BatchChunk runs one sub-batch on a single shard, delivering each
// streamed line (indices are chunk-local) as it arrives. The chunk is
// shipped as one varint-packed frame and every row comes back as raw
// JSON bytes relayed without decoding (BatchLine.Raw). It does NOT fail
// over internally: lines already delivered are checkpointed by the
// caller, which re-partitions whatever is still missing — failover at
// the row set level rather than the call level, so no work is redone.
func (p *Pool) BatchChunk(ctx context.Context, payload *service.BatchPayload, deliver func(service.BatchLine)) error {
	return p.do(ctx, false, func(ctx context.Context, s *shard) error {
		jobs.PostEvent(ctx, jobs.EventDispatch,
			fmt.Sprintf("batch chunk of %d on %s", len(payload.Variations), s.addr))
		buf := wire.AppendBatchRequest(nil, payload)
		return p.wireDo(ctx, s, wire.FrameBatch, buf, func(idx int, msg string, body []byte) error {
			line := service.BatchLine{Index: idx, Error: msg}
			if msg == "" {
				line.Raw = body // freshly allocated per frame; safe to retain
			}
			deliver(line)
			return nil
		})
	})
}
