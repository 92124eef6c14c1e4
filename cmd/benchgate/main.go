// Command benchgate compares benchmark results against a committed
// baseline and fails when gated benchmarks regress beyond a threshold.
//
//	benchgate -baseline BENCH_baseline.json -current bench.txt -max-regress 20
//
// Both inputs may be either the JSON array the CI bench lane renders
// ([{"commit": ..., "name": ..., "iterations": ..., "ns_per_op": ...}])
// or raw `go test -bench` text; the format is auto-detected. Names are
// normalized by stripping the trailing -N GOMAXPROCS suffix, and when a
// benchmark appears more than once (-count > 1) the fastest run wins —
// scheduling noise only ever slows a run down, so best-of is the
// stable estimator.
//
// Only benchmarks matching -match (default: the RouteBatchInline and
// PoolSolveBatch families plus the 1e3–1e5-leaf SessionApplyDelta
// sizes) are gated; everything else is informational.
// A gated benchmark present in the baseline but missing from the
// current run is an error — a silently deleted benchmark must not
// disable its own gate. Renaming or deleting a gated benchmark
// therefore renames or drops its BENCH_baseline.json lines in the same
// commit, keeping the renamed lines' numbers.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

type result struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
}

// gomaxprocsSuffix matches the -N that `go test` appends to benchmark
// names; baseline and current runs may come from machines with
// different core counts, so it never takes part in matching.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

func normalize(name string) string {
	return gomaxprocsSuffix.ReplaceAllString(name, "")
}

// load reads a results file in either supported format and returns the
// best (minimum) ns/op per normalized benchmark name.
func load(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var results []result
	if trimmed := bytes.TrimSpace(raw); len(trimmed) > 0 && trimmed[0] == '[' {
		if err := json.Unmarshal(trimmed, &results); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	} else if results, err = parseBenchText(raw); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	best := make(map[string]float64, len(results))
	for _, r := range results {
		name := normalize(r.Name)
		if name == "" || r.NsPerOp <= 0 {
			continue
		}
		if cur, ok := best[name]; !ok || r.NsPerOp < cur {
			best[name] = r.NsPerOp
		}
	}
	if len(best) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results found", path)
	}
	return best, nil
}

// parseBenchText extracts "BenchmarkName  iterations  ns/op" lines from
// raw `go test -bench` output, tolerating the extra metric columns that
// -benchmem and custom ReportMetric calls append.
func parseBenchText(raw []byte) ([]result, error) {
	var out []result
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		for i := 2; i+1 < len(fields); i += 2 {
			if fields[i+1] != "ns/op" {
				continue
			}
			ns, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %q: %w", sc.Text(), err)
			}
			out = append(out, result{Name: fields[0], NsPerOp: ns})
			break
		}
	}
	return out, sc.Err()
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "committed baseline results (JSON or go test -bench text)")
	currentPath := flag.String("current", "", "current results to gate (JSON or go test -bench text)")
	maxRegress := flag.Float64("max-regress", 20, "maximum allowed ns/op regression, percent")
	match := flag.String("match", `^Benchmark(RouteBatchInline|PoolSolveBatch)($|/)|^BenchmarkSessionApplyDelta/leaves=(1000|10000|100000)$`, "regexp selecting the gated benchmarks")
	flag.Parse()
	if *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -current is required")
		flag.Usage()
		os.Exit(2)
	}
	gated, err := regexp.Compile(*match)
	if err != nil {
		fatal("bad -match regexp: %v", err)
	}

	baseline, err := load(*baselinePath)
	if err != nil {
		fatal("loading baseline: %v", err)
	}
	current, err := load(*currentPath)
	if err != nil {
		fatal("loading current results: %v", err)
	}

	names := make([]string, 0, len(baseline))
	for name := range baseline {
		if gated.MatchString(name) {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		fatal("baseline %s has no benchmarks matching %q — the gate would be a no-op", *baselinePath, *match)
	}
	sort.Strings(names)

	var failures []string
	fmt.Printf("%-55s %15s %15s %9s\n", "benchmark", "baseline ns/op", "current ns/op", "delta")
	for _, name := range names {
		base := baseline[name]
		cur, ok := current[name]
		if !ok {
			fmt.Printf("%-55s %15.0f %15s %9s\n", name, base, "missing", "-")
			failures = append(failures, fmt.Sprintf("%s: present in baseline but missing from the current run", name))
			continue
		}
		delta := (cur - base) / base * 100
		fmt.Printf("%-55s %15.0f %15.0f %+8.1f%%\n", name, base, cur, delta)
		if delta > *maxRegress {
			failures = append(failures,
				fmt.Sprintf("%s: %.0f -> %.0f ns/op (%+.1f%%, limit %+.1f%%)", name, base, cur, delta, *maxRegress))
		}
	}

	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "\nbenchgate: %d gated benchmark(s) regressed beyond %.1f%%:\n", len(failures), *maxRegress)
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "  "+f)
		}
		os.Exit(1)
	}
	fmt.Printf("\nbenchgate: %d gated benchmark(s) within %.1f%% of baseline\n", len(names), *maxRegress)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(2)
}
