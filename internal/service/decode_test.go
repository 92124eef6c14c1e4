package service

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/gen"
)

// referenceBatch decodes a batch body the way the handler did before the
// fast path: the strict json.Decoder.
func referenceBatch(data []byte) (*BatchPayload, error) {
	var req BatchPayload
	if err := decodeStrict(bytes.NewReader(data), &req); err != nil {
		return nil, err
	}
	return &req, nil
}

// benchBatchBody is a /v1/batch body shaped like the benchmark's: a
// 601-vertex topology and 64 request vectors (~38k integers).
func benchBatchBody(tb testing.TB) []byte {
	tb.Helper()
	in := gen.Instance(gen.Config{Internal: 200, Clients: 400, UnitCosts: true, Lambda: 0.3}, 1)
	req := BatchPayload{
		Topology: BatchTopology{Parents: in.Tree.Parents(), IsClient: in.Tree.ClientFlags()},
		Solver:   "mg",
		Options:  RequestOptions{NoCache: true},
		Base:     BatchVariation{R: in.R, W: in.W, S: in.S},
	}
	rng := rand.New(rand.NewSource(1))
	for range 64 {
		r := make([]int64, in.Tree.Len())
		for _, c := range in.Tree.Clients() {
			r[c] = 1 + rng.Int63n(100)
		}
		req.Variations = append(req.Variations, BatchVariation{R: r})
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// TestDecodeBatchMatchesEncodingJSON pins the fast path to the strict
// json.Decoder: every body decodes to an equal value or fails with the
// same error, and the bodies the service's clients send take the fast
// path.
func TestDecodeBatchMatchesEncodingJSON(t *testing.T) {
	const topo = `"topology":{"parents":[-1,0,0],"is_client":[false,true,true]}`
	cases := []struct {
		name string
		body string
		fast bool // must take the fast path
	}{
		{"canonical", `{` + topo + `,"solver":"mg","options":{"no_cache":true,"timeout_ms":250,"bound_nodes":3,"include_solution":false},"base":{"requests":[0,5,7],"capacities":[9,9,9],"storage_costs":[1,1,1]},"variations":[{"requests":[0,1,2]},{"qos":[1,2,3],"comm":[0,1,1],"bandwidth":[4,4,4]},{}]}`, true},
		{"whitespace", " \t\n{ \"solver\" : \"mg\" ,\r\n \"variations\" : [ { \"requests\" : [ -0 , 12 ] } ] } ", true},
		{"empty vectors stay non-nil", `{"solver":"mg","variations":[{"requests":[],"qos":[]}]}`, true},
		{"null leaves fields zero", `{"solver":null,"policy":"Closest","options":null,"base":{"requests":null},"variations":[{"capacities":null}],"topology":null}`, true},
		{"trailing data after the object is ignored", `{"solver":"mg","variations":[{}]} trailing`, true},
		{"empty variations", `{"solver":"mg","variations":[]}`, true},
		{"null variations", `{"solver":"mg","variations":null}`, true},
		{"largest fast integer", `{"solver":"mg","variations":[{"requests":[999999999999999999,-999999999999999999]}]}`, true},

		{"case-folded key", `{"Solver":"mg","variations":[{}]}`, false},
		{"escaped string", `{"solver":"m\u0067","variations":[{}]}`, false},
		{"non-ASCII string", `{"solver":"mé","variations":[{}]}`, false},
		{"multi-object options", `{"solver":"mo-greedy","options":{"objects":[{"requests":[1],"storage_costs":[2]}]},"variations":[{}]}`, false},
		{"duplicate key merges objects", `{"solver":"mg","options":{"no_cache":true},"options":{"timeout_ms":5},"variations":[{}]}`, false},
		{"duplicate key in a variation", `{"solver":"mg","variations":[{"requests":[1],"requests":[2,3]}]}`, false},
		{"19-digit integer", `{"solver":"mg","variations":[{"requests":[1000000000000000000]}]}`, false},
		{"int64 overflow", `{"solver":"mg","variations":[{"requests":[99999999999999999999]}]}`, false},
		{"fraction", `{"solver":"mg","variations":[{"requests":[1.5]}]}`, false},
		{"integral fraction", `{"solver":"mg","variations":[{"requests":[1.0]}]}`, false},
		{"exponent", `{"solver":"mg","variations":[{"requests":[1e2]}]}`, false},
		{"leading zero", `{"solver":"mg","variations":[{"requests":[01]}]}`, false},
		{"lone minus", `{"solver":"mg","variations":[{"requests":[-]}]}`, false},
		{"null element", `{"solver":"mg","variations":[{"requests":[1,null]}]}`, false},
		{"null variation", `{"solver":"mg","variations":[null]}`, false},
		{"unknown field", `{"solver":"mg","variations":[{}],"extra":1}`, false},
		{"unknown variation field", `{"solver":"mg","variations":[{"rates":[1]}]}`, false},
		{"wrong type", `{"solver":5,"variations":[{}]}`, false},
		{"string integer", `{"solver":"mg","variations":[{"requests":["1"]}]}`, false},
		{"bool as integer", `{"solver":"mg","topology":{"is_client":[1]}}`, false},
		{"trailing comma", `{"solver":"mg","variations":[{},]}`, false},
		{"missing colon", `{"solver" "mg"}`, false},
		{"truncated", `{"solver":"mg","variations":[{"requests":[1,2`, false},
		{"bad literal", `{"solver":"mg","options":{"no_cache":tru}}`, false},
		{"top-level null", `null`, false},
		{"top-level array", `[]`, false},
		{"empty body", ``, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := []byte(tc.body)
			if _, ok := scanBatch(data); ok != tc.fast {
				t.Errorf("fast path taken = %v, want %v", ok, tc.fast)
			}
			got, gotErr := decodeBatch(data)
			want, wantErr := referenceBatch(data)
			if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("error %v, encoding/json says %v", gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("decoded %+v, encoding/json decodes %+v", got, want)
			}
		})
	}
}

// TestDecodeBatchBenchBody: the benchmark's batch body takes the fast
// path, decodes as encoding/json does, and costs one allocation per
// decoded vector plus a small constant (the payload, the variations
// array's growth, the scratch and two strings). encoding/json makes ~780
// allocations on the same body.
func TestDecodeBatchBenchBody(t *testing.T) {
	body := benchBatchBody(t)
	got, ok := scanBatch(body)
	if !ok {
		t.Fatal("the benchmark's batch body left the fast path")
	}
	if want, err := referenceBatch(body); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("fast path and encoding/json disagree on the benchmark's batch body (encoding/json error: %v)", err)
	}
	const vectors = 2 + 3 + 64 // topology, base, variations
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := decodeBatch(body); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > vectors+24 {
		t.Errorf("decodeBatch: %.0f allocs per body, want at most %d", allocs, vectors+24)
	}
}

// FuzzDecodeBatch holds the fast path to encoding/json on arbitrary
// bodies: whenever it accepts one, the strict decoder must accept it too
// and decode an equal value.
func FuzzDecodeBatch(f *testing.F) {
	f.Add([]byte(`{"topology":{"parents":[-1,0],"is_client":[false,true]},"solver":"mg","options":{"no_cache":true,"bound_nodes":2},"base":{"requests":[0,3]},"variations":[{"requests":[0,1]},{"qos":[1,1],"comm":[],"bandwidth":null}]}`))
	f.Add([]byte(`{"solver":"mg","variations":[{"requests":[-0,18,007]}]}`))
	f.Add([]byte(` {"policy":"Upwards","variations":[]} x`))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, ok := scanBatch(data)
		if !ok {
			return
		}
		want, err := referenceBatch(data)
		if err != nil {
			t.Fatalf("fast path accepted a body encoding/json rejects: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded %+v, encoding/json decodes %+v", got, want)
		}
	})
}

// BenchmarkDecodeBatch decodes the benchmark-shaped batch body with the
// fast path and with the strict encoding/json decoder it replaced.
func BenchmarkDecodeBatch(b *testing.B) {
	body := benchBatchBody(b)
	for _, bc := range []struct {
		name   string
		decode func([]byte) (*BatchPayload, error)
	}{
		{"decoder=jsonscan", decodeBatch},
		{"decoder=encoding_json", referenceBatch},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for range b.N {
				if _, err := bc.decode(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
