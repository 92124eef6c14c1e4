package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// requestTimeout is the client deadline of every request; a request
// that misses it counts as failed.
const requestTimeout = 10 * time.Second

// client is one HTTP client of the program, limited to conns TCP
// connections to it.
type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
	// last keeps the most recent response body when set; the traced
	// phase replays it from the echo server. Only a single caller may
	// use a client that keeps it.
	keepLast bool
	last     []byte
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// call sends one request and returns the response body; a transport
// error, a timeout or a non-2xx status is an error.
func (c *client) call(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, data)
	}
	if c.keepLast {
		c.last = data
	}
	return data, nil
}

// loopResult is what a closed loop measured.
type loopResult struct {
	lat       []time.Duration // successful requests only
	attempted int
	failed    int
	elapsed   time.Duration
}

// closedLoop runs callers goroutines for d. Each calls op with the next
// number of seq as soon as its previous call returned: a closed loop, so
// a slower program receives less load. Calls that start before the
// deadline run to completion.
func closedLoop(callers int, d time.Duration, seq *atomic.Int64, op func(i int64) error) loopResult {
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		res loopResult
	)
	start := time.Now()
	deadline := start.Add(d)
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []time.Duration
			attempted, failed := 0, 0
			for time.Now().Before(deadline) {
				i := seq.Add(1) - 1
				t0 := time.Now()
				err := op(i)
				attempted++
				if err != nil {
					failed++
					reportFailure(err)
					continue
				}
				lat = append(lat, time.Since(t0))
			}
			mu.Lock()
			res.lat = append(res.lat, lat...)
			res.attempted += attempted
			res.failed += failed
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// failuresShown bounds the failures printed to standard error per run.
var failuresShown atomic.Int64

func reportFailure(err error) {
	if failuresShown.Add(1) <= 10 {
		fmt.Fprintf(os.Stderr, "rpbench: failed: %v\n", err)
	}
}

// allocCounters reads the process-wide cumulative heap allocation
// counters.
func allocCounters() (bytes, objects uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// liveHeap is HeapAlloc right after a full collection. It collects
// twice: sync.Pool scratch survives one collection in the pools' victim
// caches, and would otherwise count or not depending on timing.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// percentile returns the nearest-rank q-quantile of sorted.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func sortedCopy(d []time.Duration) []time.Duration {
	s := slices.Clone(d)
	slices.Sort(s)
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of v the way Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method).
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
