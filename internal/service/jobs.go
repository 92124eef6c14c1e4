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
	// pair — jobs.CampaignKind() and BatchJobKind(e). A cluster
	// coordinator passes its sharded kinds here instead.
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
		kinds = []jobs.Kind{jobs.CampaignKind(), BatchJobKind(e)}
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
// persisted row per variation, in completion order. Rows carry the
// variation index, so the checkpoint is the set of already-solved
// indices — a resumed batch job re-submits only the missing ones.
// Deterministic per-variation failures (validation, proven
// infeasibility surfaces as a NoSolution response) are persisted as
// error rows, matching the inline /v1/batch semantics. Transient
// failures — per-solve deadline expiry under load, engine shutdown, or
// the job's own cancellation — are never checkpointed: their
// variations stay missing and the job finishes failed (or interrupted,
// on shutdown) with every completed row intact, so they are recomputed
// rather than frozen as permanent errors.
func BatchJobKind(e *Engine) jobs.Kind {
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
			var todo []BatchVariation
			var indices []int
			for i, v := range req.Variations {
				if !done[i] {
					todo = append(todo, v)
					indices = append(indices, i)
				}
			}
			if len(todo) == 0 {
				return nil
			}
			var sinkErr error
			transient := 0
			err = e.SolveBatch(ctx, BatchRequest{
				Base:       base,
				Solver:     req.Solver,
				Policy:     policy,
				Options:    req.Options.options(),
				Variations: todo,
			}, func(item BatchItem) {
				if sinkErr != nil || ctx.Err() != nil {
					// The job is over (store failure or cancellation):
					// persisting more rows — especially context-canceled
					// error rows — would checkpoint work that never ran.
					return
				}
				if item.Err != nil && isTransientSolveErr(item.Err) {
					// A per-solve deadline or a draining engine, with the
					// job itself still live: do not freeze it into the
					// checkpoint as a permanent error row.
					transient++
					return
				}
				line := BatchLine{Index: indices[item.Index], Response: item.Response}
				if item.Err != nil {
					line.Error = item.Err.Error()
				}
				data, err := json.Marshal(line)
				if err == nil {
					err = sink(data)
				}
				if err != nil {
					sinkErr = err
				}
			})
			if err != nil {
				return err
			}
			if sinkErr != nil {
				return sinkErr
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			if transient > 0 {
				return fmt.Errorf("service: %d variation(s) failed transiently (deadline/backpressure); completed rows are checkpointed", transient)
			}
			return nil
		},
	}
}

// isTransientSolveErr classifies per-variation failures that depend on
// load or lifecycle rather than on the variation itself.
func isTransientSolveErr(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, ErrEngineClosed)
}

// BatchPayload is the batch job's persisted payload — the exact
// /v1/batch request body shape. It is exported (with DecodeBatchPayload
// and Build) so the cluster's distributed batch kind can validate the
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
