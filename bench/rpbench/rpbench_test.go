package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// toyConfig is every workload at toy size: 32 solve instances, a
// session over 1e3 leaves, one round of 200ms, with the traced phase.
func toyConfig() config {
	return config{seed: 1, seconds: 0.2, rounds: 1, trace: true, solvePool: 32, sessionClients: 1000}
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkJSON(t *testing.T) (endToEnd, perLayer []specMetric) {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec.EndToEnd, spec.PerLayer
}

func TestSmokeAllWorkloads(t *testing.T) {
	endToEnd, perLayer := readBenchmarkJSON(t)
	rep, _, err := run(toyConfig(), workloadNames)
	if err != nil {
		t.Fatal(err)
	}
	var table bytes.Buffer
	printTable(&table, rep, workloadNames)
	for _, name := range workloadNames {
		wr := rep.Workloads[name]
		if got := wr.Metrics["error_rate"].Value; got != 0 || wr.Failed != 0 {
			t.Errorf("%s: error_rate %v (%d of %d failed)", name, got, wr.Failed, wr.Attempted)
		}
		for _, m := range append(append([]specMetric{}, endToEnd...), perLayer...) {
			if !tableHasRow(table.String(), name, m) {
				t.Errorf("%s: %s [%s] not printed", name, m.Name, m.Unit)
			}
		}
	}
	// The result line carries exactly the metrics BENCHMARK.json lists.
	for trace, want := range map[bool][]specMetric{false: endToEnd, true: perLayer} {
		line := finalLine(rep, workloadNames[:1], trace)
		if len(line.Metrics) != len(want) {
			t.Errorf("trace=%v: result line has %d metrics, BENCHMARK.json lists %d", trace, len(line.Metrics), len(want))
		}
		for _, m := range want {
			if got, ok := line.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("trace=%v: result line has %s as %+v, want unit %s", trace, m.Name, got, m.Unit)
			}
		}
	}
}

func tableHasRow(table, workload string, m specMetric) bool {
	for _, row := range strings.Split(table, "\n") {
		f := strings.Fields(row)
		if len(f) == 4 && f[0] == workload && f[1] == m.Name && f[3] == m.Unit {
			return true
		}
	}
	return false
}

// A wrong oracle answer must show up as failed requests, which proves
// the answers are checked.
func TestCorruptOracleIsCaught(t *testing.T) {
	cfg := toyConfig()
	cfg.trace = false
	cfg.corruptOracle = true
	for _, name := range []string{"solve-hit", "batch-local", "session-patch"} {
		rep, _, err := run(cfg, []string{name})
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Workloads[name].Metrics["error_rate"].Value; got <= 0 {
			t.Errorf("%s: error_rate %v with a corrupted oracle, want > 0", name, got)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(v, n=4) for each v.
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{2, 1}, 0.75, 2.25},
	} {
		if q1, q3 := quartiles(c.v); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	a := []float64{100, 101, 102, 103, 104}
	for _, c := range []struct {
		b           []float64
		lowerBetter bool
		want        string
	}{
		{[]float64{101, 102, 103, 104, 105}, true, "same"},
		{[]float64{120, 121, 122, 123, 124}, true, "worse"},
		{[]float64{120, 121, 122, 123, 124}, false, "better"},
		{[]float64{60, 100, 102, 104, 150}, true, "unresolved"},
		// Wide spread, but every round of B beats every round of A.
		{[]float64{50, 60, 80, 90, 99}, true, "better"},
	} {
		if got := verdict(a, c.b, c.lowerBetter, 0.1); got != c.want {
			t.Errorf("verdict(%v, %v, lower=%v) = %s, want %s", a, c.b, c.lowerBetter, got, c.want)
		}
	}
}

func TestBoolArgs(t *testing.T) {
	got := boolArgs([]string{"--workload", "solve-hit", "--trace", "0", "-seconds", "1", "-trace", "1"}, "trace")
	want := []string{"--workload", "solve-hit", "--trace=0", "-seconds", "1", "-trace=1"}
	if !slices.Equal(got, want) {
		t.Errorf("boolArgs = %q, want %q", got, want)
	}
}
