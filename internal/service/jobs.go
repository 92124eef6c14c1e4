package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/tree"
)

// BatchKindName is the jobs.Spec kind of large batch-solve jobs.
const BatchKindName = "batch"

// JobsOptions configures NewJobsManagerOpts.
type JobsOptions struct {
	// Dir selects the persistent file store (empty = in-memory; jobs
	// then die with the process).
	Dir string
	// Workers bounds concurrently running jobs.
	Workers int
	// RetainFor prunes finished jobs older than this age (0 = keep until
	// DELETE); see jobs.Options.RetainFor.
	RetainFor time.Duration
	// Kinds overrides the registered job kinds. Nil selects the local
	// pair — jobs.CampaignKind() and BatchJobKind(e, nil). A cluster
	// coordinator passes cluster.Kinds here instead: the sharded
	// campaign kind and BatchJobKind routed through its pool.
	Kinds []jobs.Kind
	// Logger receives the manager's job lifecycle logs (nil discards).
	Logger *slog.Logger
	// Spans, when set, records a span per job run into the process
	// flight recorder; see jobs.Options.Spans.
	Spans *obs.SpanStore
	// Events, when set, records a job_failed event per job that reaches
	// a failed terminal state; see jobs.Options.Events.
	Events *obs.EventRing
}

// NewJobsManager wires the async job subsystem for an engine: a file
// store under dir (or an in-memory store when dir is empty — jobs then
// die with the process), the campaign kind, and the engine-backed batch
// kind. workers bounds concurrently running jobs.
func NewJobsManager(e *Engine, dir string, workers int) (*jobs.Manager, error) {
	return NewJobsManagerOpts(e, JobsOptions{Dir: dir, Workers: workers})
}

// NewJobsManagerOpts is NewJobsManager with retention and kind control.
func NewJobsManagerOpts(e *Engine, opts JobsOptions) (*jobs.Manager, error) {
	var store jobs.Store
	if opts.Dir != "" {
		fs, err := jobs.NewFileStore(opts.Dir)
		if err != nil {
			return nil, err
		}
		store = fs
	} else {
		store = jobs.NewMemStore()
	}
	kinds := opts.Kinds
	if kinds == nil {
		kinds = []jobs.Kind{jobs.CampaignKind(), BatchJobKind(e, nil)}
	}
	return jobs.NewManager(jobs.Options{
		Store:     store,
		Workers:   opts.Workers,
		RetainFor: opts.RetainFor,
		Logger:    opts.Logger,
		Spans:     opts.Spans,
		Events:    opts.Events,
	}, kinds...)
}

// BatchJobKind executes /v1/batch-shaped payloads as async jobs: one
// persisted row per variation. Rows carry the variation index, so the
// checkpoint is the set of already-solved indices — a resumed batch job
// submits only the missing ones, as a sub-batch through the same runner
// as /v1/batch. With a nil router the engine solves them and rows land
// in completion order. A coordinator passes its pool: the sub-batch is
// then routed as an inline batch is — cache probe, weighted shard
// chunks, and the coordinator's own engine for whatever no shard takes
// — and rows land in index order, so rows that sat finished in the
// reorder buffer when the process died are recomputed on resume.
// Deterministic per-variation failures (validation, proven
// infeasibility surfaces as a NoSolution response) are persisted as
// error rows, matching the inline /v1/batch semantics. Transient
// failures — per-solve deadline expiry under load, engine shutdown, or
// the job's own cancellation — are never checkpointed: their
// variations stay missing and the job finishes failed (or interrupted,
// on shutdown) with every completed row intact, so they are recomputed
// rather than frozen as permanent errors.
func BatchJobKind(e *Engine, router BatchRouter) jobs.Kind {
	return jobs.Kind{
		Name: BatchKindName,
		Prepare: func(payload json.RawMessage) (json.RawMessage, int, error) {
			req, err := DecodeBatchPayload(payload)
			if err != nil {
				return nil, 0, err
			}
			if _, _, err := req.Build(e); err != nil {
				return nil, 0, err
			}
			return payload, len(req.Variations), nil
		},
		Run: func(ctx context.Context, payload json.RawMessage, prior []json.RawMessage, sink func(json.RawMessage) error) error {
			req, err := DecodeBatchPayload(payload)
			if err != nil {
				return err
			}
			base, policy, err := req.Build(e)
			if err != nil {
				return err
			}
			done := make(map[int]bool, len(prior))
			for _, raw := range prior {
				var line BatchLine
				if err := json.Unmarshal(raw, &line); err != nil {
					return fmt.Errorf("service: corrupt batch job row: %w", err)
				}
				done[line.Index] = true
			}
			sub := *req
			sub.Variations = nil
			var indices []int
			for i, v := range req.Variations {
				if !done[i] {
					sub.Variations = append(sub.Variations, v)
					indices = append(indices, i)
				}
			}
			if len(indices) == 0 {
				return nil
			}
			transient := 0
			err = runBatch(ctx, e, router, base, policy, &sub, func(line BatchLine) error {
				if err := ctx.Err(); err != nil {
					// The job is over: persisting more rows — especially
					// context-canceled error rows — would checkpoint work
					// that never ran.
					return err
				}
				if line.Error != "" && IsTransientLineError(line.Error) {
					// A per-solve deadline or a draining engine, with the
					// job itself still live: do not freeze it into the
					// checkpoint as a permanent error row.
					transient++
					return nil
				}
				line.Index = indices[line.Index]
				// AppendJSON, not Marshal: routed lines carry their body
				// as raw bytes (BatchLine.Raw) that Marshal would drop.
				data, err := line.AppendJSON(nil)
				if err != nil {
					return err
				}
				return sink(data)
			})
			if cerr := ctx.Err(); cerr != nil {
				return cerr // cancellation/shutdown keep their semantics
			}
			if err != nil {
				return err
			}
			if transient > 0 {
				return fmt.Errorf("service: %d variation(s) failed transiently (deadline/backpressure); completed rows are checkpointed", transient)
			}
			return nil
		},
	}
}

// BatchPayload is the batch job's persisted payload — the exact
// /v1/batch request body shape. It is exported (with DecodeBatchPayload
// and Build) so the cluster's batch router and wire server can take the
// same payloads and re-marshal per-shard sub-batches of them.
type BatchPayload struct {
	Topology   BatchTopology    `json:"topology"`
	Solver     string           `json:"solver"`
	Policy     string           `json:"policy"`
	Options    RequestOptions   `json:"options"`
	Base       BatchVariation   `json:"base"`
	Variations []BatchVariation `json:"variations"`
}

// EngineOptions converts the payload's wire options to engine Options
// (exported for the cluster's routed-batch local fallback).
func (req *BatchPayload) EngineOptions() Options { return req.Options.options() }

// DecodeBatchPayload strictly decodes a /v1/batch-shaped job payload.
func DecodeBatchPayload(payload json.RawMessage) (*BatchPayload, error) {
	if len(payload) == 0 {
		return nil, errors.New("service: batch job without request")
	}
	req, err := decodeBatch(payload)
	if err != nil {
		return nil, fmt.Errorf("service: bad batch job payload: %w", err)
	}
	if req.Solver == "" {
		return nil, errors.New("service: batch job without solver")
	}
	if len(req.Variations) == 0 {
		return nil, errors.New("service: batch job without variations")
	}
	return req, nil
}

// Build validates the payload against the engine: topology, base
// vectors, solver and policy. The tree is interned, so the job's run
// shares it with every other request over the same shape.
func (req *BatchPayload) Build(e *Engine) (*core.Instance, core.Policy, error) {
	policy := core.Multiple
	if req.Policy != "" {
		p, ok := core.ParsePolicy(req.Policy)
		if !ok {
			return nil, 0, fmt.Errorf("service: unknown policy %q", req.Policy)
		}
		policy = p
	}
	if _, ok := e.opts.Registry.Resolve(req.Solver, policy); !ok {
		return nil, 0, &ErrUnknownSolver{Name: req.Solver}
	}
	t, err := e.InternTree(req.Topology.Parents, req.Topology.IsClient)
	if err != nil {
		return nil, 0, err
	}
	base := batchBaseInstance(t, req.Base)
	if err := base.Validate(); err != nil {
		return nil, 0, err
	}
	return base, policy, nil
}

// batchBaseInstance assembles the base instance of a batch over an
// already-preprocessed tree, defaulting absent mandatory vectors to
// zeros (shared by the HTTP batch handler and the batch job kind).
func batchBaseInstance(t *tree.Tree, base BatchVariation) *core.Instance {
	n := t.Len()
	in := &core.Instance{Tree: t, R: base.R, W: base.W, S: base.S,
		Q: base.Q, Comm: base.Comm, BW: base.BW}
	if in.R == nil {
		in.R = make([]int64, n)
	}
	if in.W == nil {
		in.W = make([]int64, n)
	}
	if in.S == nil {
		in.S = make([]int64, n)
	}
	return in
}
