package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/multiobject"
	"repro/internal/service"
)

// RemoteSuffix qualifies the remote twin of a registered solver:
// "optimal" is computed in-process, "optimal@remote" on a shard.
const RemoteSuffix = "@remote"

// RegisterRemote registers, for every solver currently in the registry,
// a "<name>@remote" twin whose backend proxies the computation through
// the pool. The twins implement the plain service.Backend signature, so
// the engine's cache, single-flight coalescing, deadline handling,
// solution validation and per-solver metrics apply to them unchanged —
// exactly the extension seam the registry was shaped for.
func RegisterRemote(reg *service.Registry, p *Pool) error {
	for _, s := range reg.Solvers() {
		if strings.HasSuffix(s.Name, RemoteSuffix) {
			continue // idempotence: never stack @remote@remote
		}
		remote := s
		remote.Name = s.Name + RemoteSuffix
		remote.Long = s.Long + " — proxied to a cluster shard"
		remote.Run = p.backend(s.Name, s.Policy)
		if err := reg.Register(remote); err != nil {
			return err
		}
	}
	return nil
}

// backend builds the service.Backend proxying one concrete solver name.
func (p *Pool) backend(solver string, policy core.Policy) service.Backend {
	return func(ctx context.Context, in *core.Instance, opt service.Options) (service.Result, error) {
		resp, err := p.Solve(ctx, in, solver, policy, opt)
		if err != nil {
			return service.Result{}, err
		}
		return resultFromResponse(resp)
	}
}

// resultFromResponse rebuilds a backend Result from a worker's wire
// response. The engine then validates solutions against the instance
// exactly as it does for local backends, so a corrupted or mismatched
// worker answer is rejected, not cached.
func resultFromResponse(resp *service.Response) (service.Result, error) {
	switch {
	case resp.NoSolution:
		return service.Result{NoSolution: true, HasBound: resp.Bound != nil}, nil
	case resp.Bound != nil:
		return service.Result{HasBound: true, Bound: resp.Bound.Value, BoundExact: resp.Bound.Exact}, nil
	case len(resp.PerObject) > 0:
		// Multi-object placement: the wire carries one solution per
		// object (the coordinator asked for IncludeSolution above).
		ms := &multiobject.Solution{PerObject: make([]*core.Solution, len(resp.PerObject))}
		for i, op := range resp.PerObject {
			if op.Solution == nil {
				return service.Result{}, fmt.Errorf("cluster: worker multi-object response misses object %d's solution", op.Object)
			}
			ms.PerObject[i] = op.Solution
		}
		return service.Result{MultiSolution: ms}, nil
	case resp.Solution != nil:
		return service.Result{Solution: resp.Solution}, nil
	default:
		return service.Result{}, errors.New("cluster: worker response carries neither solution nor bound")
	}
}

// StripRemoteSuffix returns the local solver name behind an @remote
// twin (case-insensitively), or the name unchanged. RouteBatch
// applies it before forwarding work: workers register only local
// names, so a coordinator-side "optimal@remote" must travel as
// "optimal".
func StripRemoteSuffix(name string) string {
	if len(name) >= len(RemoteSuffix) &&
		strings.EqualFold(name[len(name)-len(RemoteSuffix):], RemoteSuffix) {
		return name[:len(name)-len(RemoteSuffix)]
	}
	return name
}
