package service

import (
	"bytes"
	"net/http"
	"sync"

	"repro/internal/jsonscan"
)

// A /v1/batch body is read by jsonscan in one pass when it stays inside
// its subset, which the service's own clients and the cluster always
// produce. Any other body is decoded again by the strict encoding/json
// decoder, which also words every error, so the fast path changes no
// answer.

// maxBodyBytes bounds a JSON request body.
const maxBodyBytes = 64 << 20

// bodyBufs recycles request body buffers. Decoded values never share
// memory with the body, so a buffer is reusable once decoding returns.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody keeps the rare huge body from pinning its buffer.
const maxPooledBody = 1 << 20

// readBatch reads a /v1/batch request body, up to maxBodyBytes, into a
// pooled buffer and decodes it.
func readBatch(r *http.Request) (*BatchPayload, error) {
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			buf.Reset()
			bodyBufs.Put(buf)
		}
	}()
	if _, err := buf.ReadFrom(http.MaxBytesReader(nil, r.Body, maxBodyBytes)); err != nil {
		return nil, err
	}
	return decodeBatch(buf.Bytes())
}

var (
	batchKeys     = []string{"topology", "solver", "policy", "options", "base", "variations"}
	topologyKeys  = []string{"parents", "is_client"}
	optionKeys    = []string{"timeout_ms", "no_cache", "bound_nodes", "include_solution"}
	variationKeys = []string{"requests", "capacities", "storage_costs", "qos", "comm", "bandwidth"}
)

// decodeBatch decodes a /v1/batch body as the strict json.Decoder does.
func decodeBatch(data []byte) (*BatchPayload, error) {
	if req, ok := scanBatch(data); ok {
		return req, nil
	}
	var req BatchPayload
	if err := decodeStrict(bytes.NewReader(data), &req); err != nil {
		return nil, err
	}
	return &req, nil
}

// scanBatch is decodeBatch's fast path; false sends the body to
// encoding/json.
func scanBatch(data []byte) (*BatchPayload, bool) {
	r := jsonscan.NewReader(data)
	req := &BatchPayload{}
	r.Object(batchKeys, func(key string) {
		switch key {
		case "topology":
			r.Object(topologyKeys, func(key string) {
				if key == "parents" {
					req.Topology.Parents = r.Ints()
				} else {
					req.Topology.IsClient = r.Bools()
				}
			})
		case "solver":
			req.Solver = r.Str()
		case "policy":
			req.Policy = r.Str()
		case "options":
			scanOptions(r, &req.Options)
		case "base":
			scanVariation(r, &req.Base)
		case "variations":
			req.Variations = []BatchVariation{}
			r.Array(func() {
				req.Variations = append(req.Variations, BatchVariation{})
				scanVariation(r, &req.Variations[len(req.Variations)-1])
			})
		}
	})
	return req, !r.Failed()
}

// scanOptions reads RequestOptions. A multi-object request's "objects"
// is outside optionKeys, so it takes the encoding/json path.
func scanOptions(r *jsonscan.Reader, o *RequestOptions) {
	r.Object(optionKeys, func(key string) {
		switch key {
		case "timeout_ms":
			o.TimeoutMS = r.Int64()
		case "no_cache":
			o.NoCache = r.Bool()
		case "bound_nodes":
			o.BoundNodes = r.Int()
		case "include_solution":
			o.IncludeSolution = r.Bool()
		}
	})
}

func scanVariation(r *jsonscan.Reader, v *BatchVariation) {
	r.Object(variationKeys, func(key string) {
		switch key {
		case "requests":
			v.R = r.Int64s()
		case "capacities":
			v.W = r.Int64s()
		case "storage_costs":
			v.S = r.Int64s()
		case "qos":
			v.Q = r.Ints()
		case "comm":
			v.Comm = r.Int64s()
		case "bandwidth":
			v.BW = r.Int64s()
		}
	})
}
