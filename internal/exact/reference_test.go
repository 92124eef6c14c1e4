package exact

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/tree"
)

// refClosestHomogeneous is ClosestHomogeneous as first written, with its
// own copy of the Kundu-Misra loop, before it became closestPartition
// with every QoS slack infinite.
func refClosestHomogeneous(in *core.Instance) (*core.Solution, error) {
	if !in.Homogeneous() {
		return nil, errors.New("exact: ClosestHomogeneous requires a homogeneous instance")
	}
	if in.HasQoS() || in.HasBandwidth() {
		return nil, errors.New("exact: ClosestHomogeneous does not support QoS or bandwidth constraints")
	}
	t := in.Tree
	w := in.W[t.Internal()[0]]
	if in.TotalRequests() == 0 {
		return core.NewSolution(t.Len()), nil
	}
	if w <= 0 {
		return nil, ErrNoSolution
	}

	flow := make([]int64, t.Len()) // uncovered flow leaving each vertex
	repl := make([]bool, t.Len())
	for _, v := range t.PostOrder() {
		if t.IsClient(v) {
			flow[v] = in.R[v]
			continue
		}
		var f int64
		for _, c := range t.Children(v) {
			f += flow[c]
		}
		for f > w {
			// Promote the internal child with the heaviest uncovered flow.
			best := -1
			for _, c := range t.Children(v) {
				if t.IsInternal(c) && !repl[c] && flow[c] > 0 &&
					(best < 0 || flow[c] > flow[best]) {
					best = c
				}
			}
			if best < 0 {
				return nil, ErrNoSolution // client children alone overflow v
			}
			repl[best] = true
			f -= flow[best]
			flow[best] = 0
		}
		flow[v] = f
	}
	root := t.Root()
	if flow[root] > 0 {
		repl[root] = true
	}
	return assignClosest(in, repl)
}

// TestClosestHomogeneousMatchesReference holds ClosestHomogeneous to its
// own former body: the same assignment byte for byte, or the same error
// text, on homogeneous instances with and without weighted links (which
// it must ignore), zero-rate clients and loads past feasibility, and on
// the inputs its preconditions reject.
func TestClosestHomogeneousMatchesReference(t *testing.T) {
	type instance struct {
		label string
		in    *core.Instance
	}
	instances := []instance{
		{"figure 1a", core.Figure1('a')},
		{"figure 2", core.Figure2(3)},
		{"figure 3", core.Figure3(3)},
		{"heterogeneous", core.Figure4(5, 10)},
		{"QoS", gen.Instance(gen.Config{Internal: 8, Clients: 12, UnitCosts: true, QoSRange: 3}, 1)},
		{"bandwidth", gen.Instance(gen.Config{Internal: 8, Clients: 12, UnitCosts: true, BWFactor: 0.5}, 1)},
	}
	// Client children alone overflowing their node: no Closest placement.
	overflow := core.Figure1('a')
	overflow.R[overflow.Tree.Clients()[0]] = 2
	// Link weights of 2^51 a hop, which a solver without QoS bounds must
	// ignore: no path weight may exhaust a slack that has no bound.
	heavy := core.Figure2(3)
	heavy.Comm = make([]int64, heavy.Tree.Len())
	for v := range heavy.Comm {
		if heavy.Tree.Parent(v) != tree.None {
			heavy.Comm[v] = 1 << 51
		}
	}
	instances = append(instances, instance{"overflowing client", overflow}, instance{"heavy links", heavy})
	for seed := int64(1); seed <= 80; seed++ {
		cfg := gen.Config{
			Internal:  2 + int(seed%30),
			Clients:   2 + int(seed%45),
			Lambda:    0.2 + float64(seed%11)/10,
			UnitCosts: true,
		}
		in := gen.Instance(cfg, seed)
		if seed%2 == 0 {
			in.Comm = make([]int64, in.Tree.Len())
			for v := range in.Comm {
				if in.Tree.Parent(v) != tree.None {
					in.Comm[v] = int64(v % 4)
				}
			}
		}
		if seed%3 == 0 {
			for i, c := range in.Tree.Clients() {
				if i%3 == 0 {
					in.R[c] = 0
				}
			}
		}
		instances = append(instances, instance{fmt.Sprintf("%+v seed %d", cfg, seed), in})
	}
	var solved, failed int
	for _, inst := range instances {
		got, err := ClosestHomogeneous(inst.in)
		want, wantErr := refClosestHomogeneous(inst.in)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("%s: err %v, reference err %v", inst.label, err, wantErr)
		}
		if wantErr != nil {
			failed++
			continue
		}
		if !reflect.DeepEqual(got.Assign, want.Assign) {
			t.Fatalf("%s: assignment differs from the reference\ngot:  %v\nwant: %v", inst.label, got, want)
		}
		// With no bound to force a placement, the QoS solver is the
		// same greedy and must give the same answer.
		qos, err := ClosestHomogeneousQoS(inst.in)
		if err != nil {
			t.Fatalf("%s: closest-qos-optimal: %v", inst.label, err)
		}
		if !reflect.DeepEqual(qos.Assign, want.Assign) {
			t.Fatalf("%s: closest-qos-optimal differs from the reference\ngot:  %v\nwant: %v", inst.label, qos, want)
		}
		solved++
	}
	if solved == 0 || failed == 0 {
		t.Errorf("%d solved and %d failed instances, want some of each", solved, failed)
	}
}
