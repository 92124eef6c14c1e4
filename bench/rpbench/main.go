// Command rpbench is the end-to-end benchmark of the replica-placement
// service. It builds the service in process the way rpserve builds it by
// default, serves it on a 127.0.0.1 listener, drives five closed-loop
// workloads against it, checks every answer against the library, and
// prints every metric by name with its unit.
//
// Usage, from the bench directory:
//
//	go run ./rpbench -out run.json            # all five workloads
//	go run ./rpbench -workload solve-hit -seed 2 -seconds 10
//	go run ./rpbench -trace                   # plus the per-layer breakdown
//	go run ./rpbench -compare A.json B.json   # verdicts under BENCHMARK.json
//
// Each workload runs several rounds. A round builds a fresh program, runs
// its setup, settles for a quarter of the round untimed, measures, then
// closes the program; round r starts the workloads in an order rotated by
// r, so drift of the machine spreads over all of them. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics: the end-to-end metrics, or with -trace the
// per-layer ones that BENCHMARK.json lists.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"text/tabwriter"
	"time"
)

// config is one run's settings.
type config struct {
	seed    int64
	seconds float64 // measured seconds per workload, split evenly over the rounds
	rounds  int
	trace   bool
	// Input sizes. The command uses the defaults; the smoke test shrinks
	// them.
	solvePool      int // distinct /v1/solve instances
	sessionClients int // leaves of the session tree (internal vertices: a quarter)
	corruptOracle  bool
}

func defaultConfig() config {
	return config{seed: 1, seconds: 20, rounds: 5, solvePool: 256, sessionClients: 100000}
}

func (c config) roundLen() time.Duration {
	return time.Duration(c.seconds / float64(c.rounds) * float64(time.Second))
}

func (c config) settle() time.Duration { return c.roundLen() / 4 }

// clientConns is the number of client connections per workload.
const clientConns = 2

// metricSpec names a metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics every workload reports. The times are taken
// at the host's usual speed: a round's raw readings (the *_raw_* ones)
// scaled by refNominal over ref_ms, the round's speed reference (see
// speed.go).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"error_rate", "ratio"},
	{"alloc_kb_per_op", "KiB"},
	{"allocs_per_op", "count"},
	{"retained_heap_mb", "MiB"},
	{"setup_raw_s", "s"},
	{"p50_raw_ms", "ms"},
	{"p90_raw_ms", "ms"},
	{"ops_raw_per_s", "1/s"},
	{"ref_ms", "ms"},
}

// gatedEndToEnd are the end-to-end metrics BENCHMARK.json lists with
// their bounds. error_rate is left out: it is 0 on a correct run, and
// the result line's failed count carries it.
var gatedEndToEnd = []string{
	"setup_s", "p50_ms", "p90_ms", "ops_per_s",
	"alloc_kb_per_op", "allocs_per_op", "retained_heap_mb",
}

// layerMetrics is the traced breakdown. A layer a workload does not run
// reads 0 there.
var layerMetrics = []metricSpec{
	{"service.decode_us", "us"},
	{"tree.build_us", "us"},
	{"core.validate_us", "us"},
	{"service.hash_us", "us"},
	{"service.cache_us", "us"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.queue_wait_us", "us"},
	{"heuristics.solve_us", "us"},
	{"core.validate_solution_us", "us"},
	{"service.encode_us", "us"},
	{"tree.intern_us", "us"},
	{"tree.intern_hit_ratio", "ratio"},
	{"service.solve_batch_us", "us"},
	{"cluster.route_batch_us", "us"},
	{"wire.encode_us", "us"},
	{"wire.decode_us", "us"},
	{"cluster.shard_rtt_us", "us"},
	{"cluster.reorder_wait_us", "us"},
	{"cluster.wire_row_ratio", "ratio"},
	{"session.apply_us", "us"},
	{"session.incremental_ratio", "ratio"},
	{"session.watch_lag_us", "us"},
	{"http.roundtrip_us", "us"},
	{"http.transport_us", "us"},
	{"runtime.gc_us", "us"},
	{"obs.flight_recorder_pct", "%"},
	{"layers.sum_ratio", "ratio"},
}

// gatedLayers are the per-layer metrics BENCHMARK.json lists: those
// measured on every workload. The rest read 0 where their layer does
// not run.
var gatedLayers = []string{
	"service.decode_us", "service.encode_us", "http.roundtrip_us", "http.transport_us", "runtime.gc_us",
	"service.cache_hit_ratio", "tree.intern_hit_ratio", "cluster.wire_row_ratio",
	"session.incremental_ratio", "obs.flight_recorder_pct", "layers.sum_ratio",
}

// report is the -out file.
type report struct {
	Meta      meta                       `json:"meta"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

// meta identifies what was measured and how; -compare refuses runs whose
// settings differ.
type meta struct {
	Revision     string  `json:"vcs.revision"`
	Modified     string  `json:"vcs.modified,omitempty"`
	GoVersion    string  `json:"go_version"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NumCPU       int     `json:"num_cpu"`
	Seed         int64   `json:"seed"`
	Clients      int     `json:"clients"`
	Rounds       int     `json:"rounds"`
	RoundSeconds float64 `json:"round_seconds"`
}

type workloadReport struct {
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`
	Layers     map[string]metric `json:"layers,omitempty"`
	CrossCheck []string          `json:"cross_check_failures,omitempty"`
}

type metric struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Rounds []float64 `json:"rounds,omitempty"`
}

func newMeta(cfg config) meta {
	m := meta{Revision: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), Seed: cfg.seed, Clients: clientConns, Rounds: cfg.rounds,
		RoundSeconds: cfg.roundLen().Seconds()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Revision = s.Value
			case "vcs.modified":
				m.Modified = s.Value
			}
		}
	}
	return m
}

// roundStats is what one round measured.
type roundStats struct {
	setup                    time.Duration
	window                   loopResult    // the timed window
	attempted, failed        int           // the whole round: setup, settling and the window
	allocBytes, allocObjects uint64        // during the window
	retained                 uint64        // the program's live heap at the end
	ref                      time.Duration // the speed reference's time around the window
}

// runRound builds a fresh program, sets it up, settles, measures and
// closes it. seq numbers the workload's requests across rounds.
func runRound(w workload, cfg config, seq *atomic.Int64, ref *speedRef) (roundStats, error) {
	var rs roundStats
	ctx := context.Background()
	baseline := liveHeap()
	start := time.Now()
	p, err := newProgram(w.routed(), true, nil)
	if err != nil {
		return rs, err
	}
	defer p.close()
	c := newClient(p.url(), clientConns)
	defer c.close()
	var t tally
	tg, err := w.setup(ctx, c, &t)
	if err != nil {
		return rs, fmt.Errorf("setup: %w", err)
	}
	rs.setup = time.Since(start)

	op := func(i int64) error { return callChecked(ctx, c, tg, i) }
	settle := closedLoop(w.callers(), cfg.settle(), seq, op)
	refs := ref.measure()
	b0, o0 := allocCounters()
	rs.window = closedLoop(w.callers(), cfg.roundLen(), seq, op)
	b1, o1 := allocCounters()
	rs.allocBytes, rs.allocObjects = b1-b0, o1-o0
	rs.ref = medianDur(append(refs, ref.measure()...))
	rs.attempted = t.attempted + settle.attempted + rs.window.attempted
	rs.failed = t.failed + settle.failed + rs.window.failed
	if err := tg.finish(ctx, c); err != nil {
		// The end-of-round checks cover every op of the round.
		reportFailure(fmt.Errorf("end of round: %w", err))
		rs.failed = rs.attempted
		rs.window.lat = nil
	}
	if live := liveHeap(); live > baseline {
		rs.retained = live - baseline
	}
	return rs, nil
}

// summarize turns a workload's rounds into its end-to-end metrics: the
// median over the rounds, which a round disturbed by the machine moves
// less than pooling would. error_rate covers the whole run.
func summarize(rounds []roundStats) *workloadReport {
	wr := &workloadReport{Metrics: map[string]metric{}}
	per := map[string][]float64{}
	for _, r := range rounds {
		wr.Attempted += r.attempted
		wr.Failed += r.failed
		lat := sortedCopy(r.window.lat)
		ops := float64(max(r.window.attempted, 1))
		scale := float64(refNominal) / float64(r.ref)
		p50, p90 := ms(percentile(lat, 0.50)), ms(percentile(lat, 0.90))
		throughput := float64(len(lat)) / r.window.elapsed.Seconds()
		per["setup_s"] = append(per["setup_s"], r.setup.Seconds()*scale)
		per["p50_ms"] = append(per["p50_ms"], p50*scale)
		per["p90_ms"] = append(per["p90_ms"], p90*scale)
		per["ops_per_s"] = append(per["ops_per_s"], throughput/scale)
		per["setup_raw_s"] = append(per["setup_raw_s"], r.setup.Seconds())
		per["p50_raw_ms"] = append(per["p50_raw_ms"], p50)
		per["p90_raw_ms"] = append(per["p90_raw_ms"], p90)
		per["ops_raw_per_s"] = append(per["ops_raw_per_s"], throughput)
		per["ref_ms"] = append(per["ref_ms"], ms(r.ref))
		per["error_rate"] = append(per["error_rate"], float64(r.failed)/float64(max(r.attempted, 1)))
		per["alloc_kb_per_op"] = append(per["alloc_kb_per_op"], float64(r.allocBytes)/1024/ops)
		per["allocs_per_op"] = append(per["allocs_per_op"], float64(r.allocObjects)/ops)
		per["retained_heap_mb"] = append(per["retained_heap_mb"], float64(r.retained)/(1<<20))
	}
	for _, m := range endToEnd {
		v := median(per[m.name])
		if m.name == "error_rate" {
			v = float64(wr.Failed) / float64(max(wr.Attempted, 1))
		}
		wr.Metrics[m.name] = metric{Value: v, Unit: m.unit, Rounds: per[m.name]}
	}
	return wr
}

// run measures the named workloads and returns the report plus the
// harness's spans of the traced phase.
func run(cfg config, names []string) (*report, []span, error) {
	loads := map[string]workload{}
	seqs := map[string]*atomic.Int64{}
	for _, name := range names {
		w, err := newWorkload(name, cfg)
		if err != nil {
			return nil, nil, err
		}
		loads[name], seqs[name] = w, new(atomic.Int64)
	}
	ref := newSpeedRef()
	rounds := map[string][]roundStats{}
	for r := range cfg.rounds {
		for k := range names {
			name := names[(k+r)%len(names)]
			rs, err := runRound(loads[name], cfg, seqs[name], ref)
			if err != nil {
				return nil, nil, fmt.Errorf("%s round %d: %w", name, r+1, err)
			}
			rounds[name] = append(rounds[name], rs)
		}
	}
	rep := &report{Meta: newMeta(cfg), Workloads: map[string]*workloadReport{}}
	var spans []span
	for _, name := range names {
		wr := summarize(rounds[name])
		rep.Workloads[name] = wr
		if !cfg.trace {
			continue
		}
		tr, err := traceWorkload(name, loads[name], cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("%s traced phase: %w", name, err)
		}
		wr.Attempted += tr.attempted
		wr.Failed += tr.failed
		wr.CrossCheck = tr.crossCheck
		wr.Layers = map[string]metric{}
		for _, m := range layerMetrics {
			wr.Layers[m.name] = metric{Value: tr.layers[m.name], Unit: m.unit}
		}
		spans = append(spans, tr.spans...)
	}
	return rep, spans, nil
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// finalLine holds the end-to-end metrics (the per-layer ones BENCHMARK.json
// lists, with -trace). Over several workloads each name is prefixed with
// its workload's.
func finalLine(rep *report, names []string, trace bool) resultLine {
	line := resultLine{Metrics: map[string]metric{}}
	for _, name := range names {
		wr := rep.Workloads[name]
		line.Attempted += wr.Attempted
		line.Failed += wr.Failed
		prefix := ""
		if len(names) > 1 {
			prefix = name + "."
		}
		add := func(key string, m metric) {
			line.Metrics[prefix+key] = metric{Value: m.Value, Unit: m.Unit}
		}
		if trace {
			for _, key := range gatedLayers {
				add(key, wr.Layers[key])
			}
			continue
		}
		for _, key := range gatedEndToEnd {
			add(key, wr.Metrics[key])
		}
	}
	line.Correct = line.Failed == 0
	return line
}

// printTable writes every metric by name with its unit.
func printTable(w io.Writer, rep *report, names []string) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "workload\tmetric\tvalue\tunit\t\n")
	for _, name := range names {
		wr := rep.Workloads[name]
		for _, m := range endToEnd {
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t\n", name, m.name, wr.Metrics[m.name].Value, m.unit)
		}
		if wr.Layers != nil {
			for _, m := range layerMetrics {
				fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t\n", name, m.name, wr.Layers[m.name].Value, m.unit)
			}
		}
	}
	tw.Flush()
	for _, name := range names {
		for _, c := range rep.Workloads[name].CrossCheck {
			fmt.Fprintf(w, "%s: cross-check failed: %s\n", name, c)
		}
	}
}

// boolArgs rewrites "-name 0" and "-name 1" as "-name=0" and "-name=1"
// for the named boolean flag, so callers may pass its value as a
// separate argument.
func boolArgs(args []string, name string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-"+name || a == "--"+name) && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			a += "=" + args[i+1]
			i++
		}
		out = append(out, a)
	}
	return out
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("rpbench: ")
	cfg := defaultConfig()
	workloadFlag := flag.String("workload", "", "run only this workload (default: all of "+strings.Join(workloadNames, ", ")+")")
	out := flag.String("out", "", "write the full results (per-round values, layers, run metadata) as JSON to this file")
	traceOut := flag.String("trace-out", "", "with -trace, write the harness's spans as JSON to this file")
	compare := flag.Bool("compare", false, "compare two -out files: rpbench -compare A.json B.json")
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "seed of every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "measured seconds per workload, split over the rounds")
	flag.BoolVar(&cfg.trace, "trace", false, "also run the traced phase and print the per-layer breakdown")
	if err := flag.CommandLine.Parse(boolArgs(os.Args[1:], "trace")); err != nil {
		os.Exit(2)
	}
	if *compare {
		if flag.NArg() != 2 {
			log.Fatal("-compare takes two result files")
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			log.Fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || cfg.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	names := workloadNames
	if *workloadFlag != "" {
		names = []string{*workloadFlag}
	}
	rep, spans, err := run(cfg, names)
	if err != nil {
		log.Fatal(err)
	}
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			log.Fatal(err)
		}
	}
	if *traceOut != "" {
		if err := writeJSON(*traceOut, spans); err != nil {
			log.Fatal(err)
		}
	}
	printTable(os.Stdout, rep, names)
	line, err := json.Marshal(finalLine(rep, names, cfg.trace))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s\n", line)
	for _, name := range names {
		if len(rep.Workloads[name].CrossCheck) > 0 {
			os.Exit(1)
		}
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
