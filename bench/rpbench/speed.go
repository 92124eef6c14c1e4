package main

import (
	"crypto/sha256"
	"math/rand"
	"runtime"
	"slices"
	"time"
)

// The host's speed drifts: on the 2-core VM this benchmark was defined
// on, a fixed computation ran up to 1.6× slower for minutes at a time,
// and latencies moved with it. Each round therefore also times a fixed
// reference computation, which uses nothing from the program: hashing,
// sorting and pointer chasing over 4 MB. The reported times are a
// round's raw readings scaled by refNominal over that reference time:
// what the round would have read on the host at its usual speed.

// refNominal is the reference computation's usual time on that host. It
// only sets the scale of the normalized metrics.
const refNominal = 12 * time.Millisecond

// speedRef holds the reference computation's inputs; running it
// allocates nothing.
type speedRef struct {
	hash  []byte
	ints  []int
	sort  []int
	cycle []int32 // a single cycle through all indices, in random order
	sink  int     // keeps the results live
}

func newSpeedRef() *speedRef {
	rng := rand.New(rand.NewSource(1))
	r := &speedRef{hash: make([]byte, 256<<10), ints: make([]int, 50000), sort: make([]int, 50000)}
	for i := range r.ints {
		r.ints[i] = rng.Int()
	}
	perm := rng.Perm(1 << 20)
	r.cycle = make([]int32, len(perm))
	for i, v := range perm {
		r.cycle[v] = int32(perm[(i+1)%len(perm)])
	}
	return r
}

func (r *speedRef) once() time.Duration {
	start := time.Now()
	for range 2 {
		sum := sha256.Sum256(r.hash)
		r.sink += int(sum[0])
	}
	copy(r.sort, r.ints)
	slices.Sort(r.sort)
	p := int32(0)
	for range 100000 {
		p = r.cycle[p]
	}
	r.sink += int(p)
	return time.Since(start)
}

// measure runs the reference a few times, after a collection so that no
// GC cycle runs alongside it, and returns the times.
func (r *speedRef) measure() []time.Duration {
	runtime.GC()
	d := make([]time.Duration, 3)
	for i := range d {
		d[i] = r.once()
	}
	return d
}
