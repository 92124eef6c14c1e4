package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/session"
	"repro/internal/tree"
)

// SessionResolver adapts the solver registry for placement sessions: it
// resolves names the same way /v1/solve does (family fallback included)
// and rejects backends that cannot hold a session. The session package
// gives the subtree-local heuristics MG and CBU their memoized engine
// (heuristics.NewIncremental); every other solution backend re-solves
// cold on each delta.
func SessionResolver(reg *Registry) session.ResolveFunc {
	return func(name string, policy core.Policy) (session.Solver, error) {
		s, ok := reg.Resolve(name, policy)
		if !ok {
			return session.Solver{}, &ErrUnknownSolver{Name: name}
		}
		if s.IsBound() {
			return session.Solver{}, fmt.Errorf("solver %q computes bounds, not placements; sessions need a solution solver", s.Name)
		}
		if s.Kind == "multiobject" {
			return session.Solver{}, fmt.Errorf("solver %q is multi-object; sessions hold single-object instances", s.Name)
		}
		run := s.Run
		return session.Solver{
			Name:   s.Name,
			Policy: s.Policy,
			Solve: func(ctx context.Context, in *core.Instance) (*core.Solution, bool, error) {
				res, err := run(ctx, in, Options{})
				if err != nil {
					return nil, false, err
				}
				return res.Solution, res.NoSolution, nil
			},
		}, nil
	}
}

func (a *api) registerSessionRoutes(mux *http.ServeMux) {
	if a.sessions == nil {
		disabled := func(w http.ResponseWriter, r *http.Request) {
			writeError(w, http.StatusNotImplemented, errors.New(
				"placement sessions are disabled; start rpserve with -sessions (or build the handler with HandlerOptions.Sessions)"))
		}
		mux.HandleFunc("/v1/instances", disabled)
		mux.HandleFunc("/v1/instances/", disabled)
		return
	}
	mux.HandleFunc("POST /v1/instances", a.handleInstanceCreate)
	mux.HandleFunc("GET /v1/instances", a.handleInstanceList)
	mux.HandleFunc("GET /v1/instances/{id}", a.handleInstanceGet)
	mux.HandleFunc("PATCH /v1/instances/{id}", a.handleInstancePatch)
	mux.HandleFunc("DELETE /v1/instances/{id}", a.handleInstanceDelete)
	mux.HandleFunc("GET /v1/instances/{id}/watch", a.handleInstanceWatch)
}

// sessionError maps the session package's sentinels to HTTP statuses.
// Server-side solve failures (backend faults, solve timeouts) are 5xx;
// anything unmapped is a 400 (the remaining failure modes are bad input:
// unknown solver, invalid instance, malformed ops).
func sessionError(w http.ResponseWriter, err error) {
	var unknown *ErrUnknownSolver
	switch {
	case errors.As(err, &unknown):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, session.ErrNotFound), errors.Is(err, session.ErrClosed):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, session.ErrStaleRev):
		writeError(w, http.StatusConflict, err)
	case errors.Is(err, session.ErrFutureRev):
		writeError(w, http.StatusBadRequest, err)
	case errors.Is(err, session.ErrTooManySessions):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, session.ErrSolverFault):
		writeError(w, http.StatusInternalServerError, err)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		// The solve timed out or the request died mid-solve: the session
		// rolled back, but the failure is not the client's input.
		writeError(w, http.StatusGatewayTimeout, err)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
}

// instanceCreateRequest is the one-shot POST /v1/instances body.
type instanceCreateRequest struct {
	Instance *core.Instance `json:"instance"`
	Solver   string         `json:"solver"`
	Policy   string         `json:"policy"`
}

// instancePayload answers the instance read endpoints.
type instancePayload struct {
	session.Status
	Replicas []int          `json:"replicas,omitempty"`
	Solution *core.Solution `json:"solution,omitempty"`
	Instance *core.Instance `json:"instance,omitempty"`
}

// instanceListPayload answers GET /v1/instances.
type instanceListPayload struct {
	Instances []session.Status `json:"instances"`
}

// ndjsonHeader is the first line of a streaming (NDJSON) create.
type ndjsonHeader struct {
	Solver string `json:"solver"`
	Policy string `json:"policy"`
}

// ndjsonVertex is every following line of a streaming create: one vertex
// in id order (the root first, parents before children).
type ndjsonVertex struct {
	Kind      string `json:"kind"` // "node" or "client"
	Parent    int    `json:"parent"`
	Capacity  int64  `json:"capacity"`          // nodes
	Storage   *int64 `json:"storage,omitempty"` // nodes; defaults to capacity
	Rate      int64  `json:"rate"`              // clients
	QoS       *int   `json:"qos,omitempty"`
	Comm      *int64 `json:"comm,omitempty"`
	Bandwidth *int64 `json:"bandwidth,omitempty"`
}

func parsePolicyOr(name string, def core.Policy) (core.Policy, error) {
	if name == "" {
		return def, nil
	}
	p, ok := core.ParsePolicy(name)
	if !ok {
		return def, fmt.Errorf("unknown policy %q", name)
	}
	return p, nil
}

func (a *api) handleInstanceCreate(w http.ResponseWriter, r *http.Request) {
	ct := r.Header.Get("Content-Type")
	var (
		in     *core.Instance
		solver string
		policy core.Policy
		err    error
	)
	if strings.Contains(ct, "ndjson") {
		in, solver, policy, err = decodeInstanceStream(r.Body)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	} else {
		var req instanceCreateRequest
		if err := decodeJSON(r, &req); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if req.Instance == nil {
			writeError(w, http.StatusBadRequest, errors.New("missing instance"))
			return
		}
		in = req.Instance
		solver = req.Solver
		if policy, err = parsePolicyOr(req.Policy, core.Multiple); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	if solver == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing solver"))
		return
	}
	s, err := a.sessions.Create(r.Context(), in, solver, policy)
	if err != nil {
		sessionError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, instancePayload{Status: s.Status(), Replicas: s.Replicas()})
}

// decodeInstanceStream reads the NDJSON create format: a header line
// naming the solver and policy, then one line per vertex in id order.
// Vertices arrive parents-first (the root carries parent -1), so a
// million-leaf tree streams through a few fixed slices without an
// in-memory JSON document.
func decodeInstanceStream(body io.ReadCloser) (*core.Instance, string, core.Policy, error) {
	dec := json.NewDecoder(http.MaxBytesReader(nil, body, 1<<30))
	var hdr ndjsonHeader
	if err := dec.Decode(&hdr); err != nil {
		return nil, "", 0, fmt.Errorf("stream header: %w", err)
	}
	policy, err := parsePolicyOr(hdr.Policy, core.Multiple)
	if err != nil {
		return nil, "", 0, err
	}

	var (
		parents  []int
		isClient []bool
		rates    []int64
		caps     []int64
		storage  []int64
		qos      []int
		comm     []int64
		bw       []int64
		hasQoS   bool
		hasComm  bool
		hasBW    bool
	)
	for {
		var v ndjsonVertex
		if err := dec.Decode(&v); err == io.EOF {
			break
		} else if err != nil {
			return nil, "", 0, fmt.Errorf("stream vertex %d: %w", len(parents), err)
		}
		id := len(parents)
		switch {
		case id == 0 && v.Parent != -1:
			return nil, "", 0, errors.New("stream vertex 0 must be the root (parent -1)")
		case id > 0 && (v.Parent < 0 || v.Parent >= id):
			return nil, "", 0, fmt.Errorf("stream vertex %d: parent %d not yet defined (vertices must arrive parents-first)", id, v.Parent)
		case id > 0 && isClient[v.Parent]:
			return nil, "", 0, fmt.Errorf("stream vertex %d: parent %d is a client", id, v.Parent)
		}
		switch v.Kind {
		case "node":
			isClient = append(isClient, false)
			rates = append(rates, 0)
			caps = append(caps, v.Capacity)
			if v.Storage != nil {
				storage = append(storage, *v.Storage)
			} else {
				storage = append(storage, v.Capacity)
			}
		case "client":
			if id == 0 {
				return nil, "", 0, errors.New("stream vertex 0 (the root) cannot be a client")
			}
			isClient = append(isClient, true)
			rates = append(rates, v.Rate)
			caps = append(caps, 0)
			storage = append(storage, 0)
		default:
			return nil, "", 0, fmt.Errorf("stream vertex %d: kind %q (want \"node\" or \"client\")", id, v.Kind)
		}
		parents = append(parents, v.Parent)
		qos = append(qos, core.NoQoS)
		comm = append(comm, 1)
		bw = append(bw, core.NoBandwidth)
		if v.QoS != nil {
			qos[id] = *v.QoS
			hasQoS = true
		}
		if v.Comm != nil {
			comm[id] = *v.Comm
			hasComm = true
		}
		if v.Bandwidth != nil {
			bw[id] = *v.Bandwidth
			hasBW = true
		}
	}
	if len(parents) == 0 {
		return nil, "", 0, errors.New("stream carries no vertices")
	}
	t, err := tree.FromParents(parents, isClient)
	if err != nil {
		return nil, "", 0, err
	}
	in := &core.Instance{Tree: t, R: rates, W: caps, S: storage}
	if hasQoS {
		in.Q = qos
	}
	if hasComm {
		in.Comm = comm
	}
	if hasBW {
		in.BW = bw
	}
	return in, hdr.Solver, policy, nil
}

func (a *api) handleInstanceList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, instanceListPayload{Instances: a.sessions.List()})
}

func (a *api) handleInstanceGet(w http.ResponseWriter, r *http.Request) {
	s, err := a.sessions.Get(r.PathValue("id"))
	if err != nil {
		sessionError(w, err)
		return
	}
	out := instancePayload{Status: s.Status(), Replicas: s.Replicas()}
	q := r.URL.Query()
	if q.Get("include_solution") != "" {
		if sol, ok := s.Solution(); ok {
			out.Solution = sol
		}
	}
	if q.Get("include_instance") != "" {
		out.Instance = s.InstanceCopy()
	}
	writeJSON(w, http.StatusOK, out)
}

// patchRequest is the PATCH /v1/instances/{id} body: a batch of typed
// delta ops applied atomically under one revision bump.
type patchRequest struct {
	Ops []session.Op `json:"ops"`
}

func (a *api) handleInstancePatch(w http.ResponseWriter, r *http.Request) {
	s, err := a.sessions.Get(r.PathValue("id"))
	if err != nil {
		sessionError(w, err)
		return
	}
	var req patchRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.Apply(r.Context(), req.Ops)
	if err != nil {
		sessionError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (a *api) handleInstanceDelete(w http.ResponseWriter, r *http.Request) {
	if err := a.sessions.Delete(r.PathValue("id")); err != nil {
		sessionError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (a *api) handleInstanceWatch(w http.ResponseWriter, r *http.Request) {
	s, err := a.sessions.Get(r.PathValue("id"))
	if err != nil {
		sessionError(w, err)
		return
	}
	var fromRev uint64
	haveFrom := false
	if raw := r.URL.Query().Get("from_rev"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad from_rev %q: %w", raw, err))
			return
		}
		fromRev, haveFrom = v, true
	}

	// Entry errors (stale/future resume point) still have a clean status
	// line; once streaming starts they can only end the stream.
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	started := false
	err = s.Watch(r.Context(), fromRev, haveFrom, func(d session.Diff) error {
		started = true
		if err := enc.Encode(d); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	switch {
	case err == nil, started, errors.Is(err, context.Canceled):
		// Client went away or the instance closed mid-stream: the NDJSON
		// body just ends.
	default:
		sessionError(w, err)
	}
}
