package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// findSpec reads the nearest BENCHMARK.json at or above the working
// directory.
func findSpec() (*benchSpec, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var spec benchSpec
			if err := json.Unmarshal(data, &spec); err != nil {
				return nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return &spec, nil
		}
		if !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, errors.New("no BENCHMARK.json at or above the working directory")
		}
		dir = parent
	}
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// comparable refuses runs whose settings make their numbers incomparable.
func comparable(a, b meta) error {
	switch {
	case a.Seed != b.Seed:
		return fmt.Errorf("seeds differ: %d vs %d", a.Seed, b.Seed)
	case a.Clients != b.Clients:
		return fmt.Errorf("clients differ: %d vs %d", a.Clients, b.Clients)
	case a.Rounds != b.Rounds || a.RoundSeconds != b.RoundSeconds:
		return fmt.Errorf("rounds differ: %d×%gs vs %d×%gs", a.Rounds, a.RoundSeconds, b.Rounds, b.RoundSeconds)
	case a.NumCPU != b.NumCPU || a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Errorf("CPU counts differ: %d/%d vs %d/%d (NumCPU/GOMAXPROCS)",
			a.NumCPU, a.GOMAXPROCS, b.NumCPU, b.GOMAXPROCS)
	}
	return nil
}

// verdict compares B's rounds with A's under a bound, a share of A's
// median: "worse" or "better" past the bound, "same" within it, and
// "unresolved" when either side's spread (interquartile range over
// median) is wider than the bound, unless every round of B beats every
// round of A.
func verdict(a, b []float64, lowerBetter bool, bound float64) string {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return "unresolved"
	}
	worsening := (mb - ma) / ma
	if !lowerBetter {
		worsening = -worsening
	}
	if spread(a) > bound || spread(b) > bound {
		if beatsAll(b, a, lowerBetter) {
			return "better"
		}
		return "unresolved"
	}
	switch {
	case worsening > bound:
		return "worse"
	case -worsening > bound:
		return "better"
	}
	return "same"
}

func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / m
}

// beatsAll reports whether every value of b is better than every value
// of a.
func beatsAll(b, a []float64, lowerBetter bool) bool {
	if lowerBetter {
		return slices.Max(b) < slices.Min(a)
	}
	return slices.Min(b) > slices.Max(a)
}

// compareFiles prints, per workload and end-to-end metric, the median
// and quartiles of both runs' rounds and a verdict under BENCHMARK.json's
// bounds. error_rate has no bound: any increase is worse. It reports
// whether any verdict is "worse".
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	if err := comparable(a.Meta, b.Meta); err != nil {
		return false, fmt.Errorf("refusing to compare: %w", err)
	}
	spec, err := findSpec()
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A: %s (%s)\nB: %s (%s)\n", pathA, a.Meta.Revision, pathB, b.Meta.Revision)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tA median [q1, q3]\tB median [q1, q3]\tchange\tbound\tverdict\n")
	worse, compared := false, 0
	for _, name := range workloadNames {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil || wb == nil {
			continue
		}
		compared++
		for _, m := range spec.EndToEnd {
			ma, mb := wa.Metrics[m.Name], wb.Metrics[m.Name]
			if len(ma.Rounds) == 0 || len(mb.Rounds) == 0 {
				return false, fmt.Errorf("%s: %s missing from a run", name, m.Name)
			}
			v := verdict(ma.Rounds, mb.Rounds, m.Better == "lower", m.Bound)
			worse = worse || v == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.2f%%\t%.1f%%\t%s\n", name, m.Name,
				describe(ma.Rounds), describe(mb.Rounds),
				100*(median(mb.Rounds)-median(ma.Rounds))/median(ma.Rounds), 100*m.Bound, v)
		}
		ea, eb := wa.Metrics["error_rate"].Value, wb.Metrics["error_rate"].Value
		v := "same"
		switch {
		case eb > ea:
			v, worse = "worse", true
		case eb < ea:
			v = "better"
		}
		fmt.Fprintf(tw, "%s\terror_rate\t%g\t%g\t\t+0\t%s\n", name, ea, eb, v)
	}
	tw.Flush()
	if compared == 0 {
		return false, errors.New("the runs share no workload")
	}
	return worse, nil
}

func describe(v []float64) string {
	q1, q3 := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(v), q1, q3)
}
